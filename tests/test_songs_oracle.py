"""The songs workload's answers, against the independent oracle.

``bench/workloads.songs_op`` runs one ``bench/inputs.songs`` song through the
progression -> braid pipeline: ``parse_progression``, each transition's word,
``serialize_word``, the joined word, its ``invariants`` and ``free_reduce``,
and ``parse_word`` of each serialized word.  ``bench/oracle.check_song_op``
checks every output without importing modalkit.  Every song of seeds 1 and 2
runs here, so an answer that the benchmark would count as failed fails a test.
"""

import pytest

from bench_modules import inputs, load, oracle

load("speed")
load("spans")
workloads = load("workloads")  # imports inputs, oracle, speed and spans by name


@pytest.mark.parametrize("seed", [1, 2])
def test_every_song_is_answered_as_the_oracle_says(seed):
    lib = workloads.library()
    songs = [song for songs in inputs.songs(seed) for song in songs]
    assert len(songs) == inputs.SONG_PASSES * len(inputs.SONG_LENGTHS) == 128
    for song in songs:
        oracle.check_song_op(song, workloads.songs_op(lib, song))

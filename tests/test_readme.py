"""The README's ``>>>`` example runs as written, on the names that
``from modalkit import *`` gives it."""

import doctest
from pathlib import Path

import modalkit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_public_surface():
    # Adding or removing a public name is a deliberate edit of this list.
    assert sorted(modalkit.__all__) == [
        "AdmissiblePath", "BraidInvariants", "BraidWord", "Chord", "ChordQuality",
        "DegreeLabel", "ModalScale", "Mode", "ModeGraph", "PitchClass", "Progression",
        "ScaleApproximation", "ScaleType", "Triad", "TriadQuality", "VoiceLeading",
        "all_standard_modes", "approximate", "braid", "braid_of_leading",
        "braid_of_progression", "braids_of_progression", "build_graph", "concatenate",
        "decompose", "emit_dot", "enumerate_admissible", "errors", "euler_characteristic",
        "free_reduce", "graph", "harmonize", "hs_ws_scale", "invariants", "leading",
        "maximal_tree", "modes", "parse_chord_symbol", "parse_note", "parse_progression",
        "parse_word", "pc", "pc_name", "pitch", "recompose", "render_ascii", "rewrite_step",
        "serialize_word", "special_modes", "standard_modes", "tcm", "voice_leading",
    ]

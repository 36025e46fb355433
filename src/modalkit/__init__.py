"""Modal scales as chord superimpositions, their graphs, braids and leadings."""

from .approximate import ScaleApproximation, approximate, hs_ws_scale
from .braid import (
    BraidInvariants,
    BraidWord,
    concatenate,
    free_reduce,
    invariants,
    parse_word,
    render_ascii,
    rewrite_step,
    serialize_word,
)
from .graph import (
    AdmissiblePath,
    DegreeLabel,
    ModeGraph,
    build_graph,
    emit_dot,
    enumerate_admissible,
    euler_characteristic,
    maximal_tree,
    special_modes,
    tcm,
)
from .leading import (
    Progression,
    VoiceLeading,
    braid_of_leading,
    braid_of_progression,
    braids_of_progression,
    parse_progression,
    voice_leading,
)
from .modes import (
    ModalScale,
    Mode,
    ScaleType,
    all_standard_modes,
    decompose,
    harmonize,
    recompose,
    standard_modes,
)
from .pitch import (
    Chord,
    ChordQuality,
    PitchClass,
    Triad,
    TriadQuality,
    parse_chord_symbol,
    parse_note,
    pc,
    pc_name,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

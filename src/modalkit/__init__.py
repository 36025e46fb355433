"""Modal scales as chord superimpositions, their graphs, braids and leadings.

Importing the package runs none of its seven layers (``pitch``, ``errors``,
``modes``, ``graph``, ``approximate``, ``leading`` and ``braid``).  Each is
registered in ``sys.modules`` as a lazily executed module
(``importlib.util.LazyLoader``), so ``sys.modules["modalkit.braid"]`` exists
at once, as the registry's one reader outside the package, ``library()`` in
``bench/workloads.py``, needs.  A layer is compiled and run on the first
access to one of its attributes; from then on it is a plain module.  The
public names are re-exported through a module ``__getattr__`` (PEP 562),
which runs the layer that defines a name when the name is first read.  The
modules are package attributes too, except ``approximate``:
``modalkit.approximate`` is the function, and its module is
``sys.modules["modalkit.approximate"]``.

An import statement may or may not run a layer.  ``from modalkit import
braid`` binds the layer unexecuted.  ``import modalkit.braid`` runs it once
the package is imported, as the import system then reads the layer's
``__spec__``, but not when that statement is what first imports the package.
``LazyLoader`` takes no lock on some Python versions (3.11 among them), so
a program whose threads may first read one layer at the same time runs that
layer before it starts them, by reading a name of it, as
``modalkit.BraidWord``; an import statement is not enough.
"""

import importlib.util
import sys

# The public names of each layer, re-exported here.
_EXPORTS = {
    "approximate": ("ScaleApproximation", "approximate", "hs_ws_scale"),
    "braid": (
        "BraidInvariants", "BraidWord", "concatenate", "free_reduce", "invariants",
        "parse_word", "render_ascii", "rewrite_step", "serialize_word",
    ),
    "errors": (),
    "graph": (
        "AdmissiblePath", "DegreeLabel", "ModeGraph", "build_graph", "emit_dot",
        "enumerate_admissible", "euler_characteristic", "maximal_tree", "special_modes", "tcm",
    ),
    "leading": (
        "Progression", "VoiceLeading", "braid_of_leading", "braid_of_progression",
        "braids_of_progression", "parse_progression", "voice_leading",
    ),
    "modes": (
        "ModalScale", "Mode", "ScaleType", "all_standard_modes", "decompose", "harmonize",
        "recompose", "standard_modes",
    ),
    "pitch": (
        "Chord", "ChordQuality", "PitchClass", "Triad", "TriadQuality", "parse_chord_symbol",
        "parse_note", "pc", "pc_name",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}


def _register(layer: str):
    """``modalkit.<layer>``, placed in ``sys.modules`` unexecuted."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # only marks the module lazy
    return module


# Every layer is placed in sys.modules at once, unexecuted, rather than imported
# when a name of it is first read: bench/workloads.py's library(), the one reader
# outside the package, reads the layers from sys.modules right after `import modalkit`.
for _layer in _EXPORTS:
    _module = _register(_layer)
    if _layer not in _LAYER_OF:  # the approximate function takes the module's name
        globals()[_layer] = _module
del _layer, _module


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[f"{__name__}.{_LAYER_OF[name]}"], name)


__all__ = sorted({*_LAYER_OF, *_EXPORTS})
__version__ = "0.1.0"


def __dir__():
    return sorted({*globals(), *_LAYER_OF})

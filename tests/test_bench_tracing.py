"""The benchmark tracer patches package names; each must stay where it looks.

``bench/tracing.py`` reads ``owner.__dict__[attr]`` for every site it wraps,
so deleting or moving one of those names breaks ``bench/run.py --trace 1``.
The file is compiled from its source here, so nothing is written under
``bench/``.
"""

import types
from pathlib import Path

from loccfisher import saturation_matrices, synthesize_tree

from conftest import ghz_family

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_is_defined_by_its_owner():
    tracing = load_tracing()
    sites = [site for sites in tracing.SPANS.values() for site in sites]
    sites += tracing.STATE_EVALS
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites
               if attr not in owner.__dict__]
    assert sites and not missing


def test_tree_node_count_reads_the_tree():
    # --trace 1 counts synthesized nodes through the tree's linked root view
    family = ghz_family(3)
    tree = synthesize_tree(saturation_matrices(family, 0.3).target, family.layout)
    assert load_tracing()._tree_nodes(tree) == 1 + 2 + 4

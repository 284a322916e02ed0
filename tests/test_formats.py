from __future__ import annotations

import io
import re
import textwrap
from pathlib import Path
from random import Random

import pytest

from survpath import (
    LayeredNetwork,
    LightpathRouting,
    Limits,
    LogicalTopology,
    PhysicalTopology,
    SurvivalMatrix,
    ValidationError,
    matrix_to_instance,
    packaged_instance,
    read_lnet,
    read_spn,
    write_lnet,
    write_spn,
)
from survpath import formats
from survpath.instances import RandomEnsembleConfig, gen_random_parallel

from oracles import random_parallel_layered


# ---------------------------------------------------------------------------
# .spn parsing
# ---------------------------------------------------------------------------


def _parse(text: str):
    return read_spn(io.StringIO(text))


def test_minimal_spn_round_values():
    inst = _parse("spn 1\nfibers 3\npath 1: f1 f2\npath 2: f2 f3\npath 3: f1 f3\n")
    assert inst.num_fibers == 3
    mat = inst.matrix()
    assert mat.num_paths == 3
    assert set(mat.path_fibers(1)) == {1, 2}
    assert inst.limits == Limits()


def test_spn_with_limits_and_comments():
    inst = _parse(
        "# parallel instance\nspn 1\n\nfibers 4\nw 2\nk 3\n"
        "path 1: f1 f2\n# middle comment\npath 2: f3\n"
    )
    assert inst.limits == Limits(max_fibers_per_path=3, max_paths_per_fiber=2)
    assert inst.matrix().num_fibers == 4


def test_spn_empty_usage_line_allowed():
    inst = _parse("spn 1\nfibers 2\npath 1:\npath 2: f1 f2\n")
    mat = inst.matrix()
    assert mat.path_cost(1) == 0
    assert mat.survive_mask(1) == mat.all_fibers_mask


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("fibers 2\npath 1: f1\n", "header"),
        ("spn 2\nfibers 2\npath 1: f1\n", "version"),
        ("spn 1\npath 1: f1\n", "fibers"),
        ("spn 1\nfibers 0\npath 1: f1\n", "outside"),
        ("spn 1\nfibers 2\npath 1: f3\n", "fiber"),
        ("spn 1\nfibers 2\npath 1: f1 f1\n", "duplicate fiber"),
        ("spn 1\nfibers 2\npath 1: f1\npath 1: f2\n", "path id"),
        ("spn 1\nfibers 2\npath 2: f1\n", "path id"),
        ("spn 1\nfibers 2\npath 1: x9\n", "token"),
        ("spn 1\nfibers 2\nw 0\npath 1: f1\n", "w"),
        ("spn 1\nfibers 2\nw 2\nw 2\npath 1: f1\n", "w"),
        ("spn 1\nfibers 2\nk 1\npath 1: f1 f2\n", "k"),
        ("spn 1\nfibers 1\nw 1\npath 1: f1\npath 2: f1\n", "bound"),
        ("spn 1\nfibers 2\nw 1\npath 1: f1\npath 2: f1\n", "fiber 1"),
    ],
)
def test_spn_parse_errors(text, fragment):
    with pytest.raises(ValidationError, match=fragment):
        _parse(text)


def test_spn_error_carries_line_number(tmp_path):
    bad = tmp_path / "bad.spn"
    bad.write_text("spn 1\nfibers 2\npath 1: f9\n")
    with pytest.raises(ValidationError, match=r"bad\.spn:3"):
        read_spn(bad)


def test_spn_path_count_capacity_check():
    # Declared W bounds the number of paths any fiber can carry; a file with
    # more paths than W*m cannot satisfy it.
    text = "spn 1\nfibers 1\nw 1\n" + "".join(f"path {j}: f1\n" for j in (1, 2))
    with pytest.raises(ValidationError):
        _parse(text)


def test_spn_canonical_writer_output():
    mat = SurvivalMatrix.from_fiber_sets(3, [[2, 1], [], [3]])
    inst = matrix_to_instance(mat, Limits(max_fibers_per_path=2, max_paths_per_fiber=1))
    buf = io.StringIO()
    write_spn(inst, buf)
    assert buf.getvalue() == (
        "spn 1\nfibers 3\nw 1\nk 2\npath 1: f1 f2\npath 2:\npath 3: f3\n"
    )


def test_spn_round_trip_random(tmp_path):
    rng = Random("spn-roundtrip")
    for idx in range(15):
        cfg = RandomEnsembleConfig(
            num_paths=rng.randint(2, 8),
            num_fibers=rng.randint(4, 10),
            max_paths_per_fiber=rng.randint(2, 4),
            trials=1,
            seed=idx,
        )
        mat = gen_random_parallel(cfg)[0]
        inst = matrix_to_instance(
            mat, Limits(max_paths_per_fiber=cfg.max_paths_per_fiber)
        )
        target = tmp_path / f"rt{idx}.spn"
        write_spn(inst, target)
        again = read_spn(target)
        assert again.matrix() == mat
        assert again.limits.max_paths_per_fiber == cfg.max_paths_per_fiber
        # Writing the parsed instance again is byte-identical (canonical form).
        buf = io.StringIO()
        write_spn(again, buf)
        assert buf.getvalue() == target.read_text()


def _canonical_spn(num_fibers: int, fiber_sets, limits: Limits) -> str:
    """The ``.spn`` text ``write_spn`` writes for these paths, built by hand."""
    caps = [("w", limits.max_paths_per_fiber), ("k", limits.max_fibers_per_path)]
    lines = ["spn 1", f"fibers {num_fibers}"]
    lines += [f"{name} {cap}" for name, cap in caps if cap is not None]
    for j, fibers in enumerate(fiber_sets, start=1):
        lines.append(" ".join([f"path {j}:", *(f"f{f}" for f in sorted(fibers))]))
    return "\n".join(lines) + "\n"


# (fiber count, fiber sets, caps) that read_spn rejects, or accepts, in writing.
MATRIX_CAPS = [
    # Fiber 1 carries two paths under w=1.
    (2, [[1], [1, 2]], Limits(max_paths_per_fiber=1)),
    # Three paths exceed w*m = 1, though no fiber carries more than one; one
    # path exceeds w*m = 0.
    (1, [[], [], [1]], Limits(max_paths_per_fiber=1)),
    (0, [[]], Limits(max_paths_per_fiber=2)),
    # Path 1 uses two fibers under k=1.
    (3, [[1, 2], [3]], Limits(max_fibers_per_path=1)),
    (3, [[1, 2], [3], []], Limits(max_fibers_per_path=2, max_paths_per_fiber=1)),
]


def test_matrix_to_instance_rejects_exactly_what_read_spn_rejects_in_writing():
    # A matrix that breaks a declared cap once gave an instance that
    # write_spn wrote and read_spn then rejected.
    rng = Random("matrix-to-instance")
    cases = list(MATRIX_CAPS)
    for _ in range(300):
        m = rng.randint(0, 5)
        sets = [
            rng.sample(range(1, m + 1), rng.randint(0, m)) for _ in range(rng.randint(0, 6))
        ]
        caps = [rng.choice([None, 1, 2, 3]) for _ in range(2)]
        cases.append((m, sets, Limits(*caps)))
    accepted = 0
    for m, sets, limits in cases:
        text = _canonical_spn(m, sets, limits)
        mat = SurvivalMatrix.from_fiber_sets(m, sets)
        try:
            read = _parse(text)
        except ValidationError as exc:
            assert str(exc).startswith("<spn>: ")
            with pytest.raises(ValidationError) as exc_info:
                matrix_to_instance(mat, limits)
            assert str(exc_info.value) == str(exc)[len("<spn>: ") :]
            continue
        instance = matrix_to_instance(mat, limits)
        buf = io.StringIO()
        write_spn(instance, buf)
        assert buf.getvalue() == text
        assert instance.matrix() == read.matrix() == mat
        assert instance.limits == read.limits == limits
        accepted += 1
    assert 50 < accepted < len(cases) - 50


# ---------------------------------------------------------------------------
# .lnet parsing
# ---------------------------------------------------------------------------


def _two_route_net() -> LayeredNetwork:
    physical = PhysicalTopology(
        nodes=("s", "x", "t"), fibers=(("s", "x"), ("x", "t"), ("s", "t"))
    )
    logical = LogicalTopology(
        nodes=("s", "t"), links=(("s", "t"), ("s", "t")), source="s", sink="t"
    )
    return LayeredNetwork(
        physical=physical, logical=logical, routing=LightpathRouting(routes=((1, 2), (3,)))
    )


def test_lnet_canonical_writer_output():
    buf = io.StringIO()
    write_lnet(_two_route_net(), buf)
    assert buf.getvalue() == (
        "lnet 1\n"
        "pnodes s x t\n"
        "pfibers\n"
        "1 s x\n"
        "2 x t\n"
        "3 s t\n"
        "lnodes s t\n"
        "llinks\n"
        "1 s t: 1 2\n"
        "2 s t: 3\n"
        "st s t\n"
    )


def test_lnet_round_trip_equality():
    net = _two_route_net()
    buf = io.StringIO()
    write_lnet(net, buf)
    again = read_lnet(io.StringIO(buf.getvalue()))
    assert again == net
    assert not again.logical.directed


def test_lnet_directed_round_trip():
    physical = PhysicalTopology(nodes=("s", "t"), fibers=(("s", "t"),))
    logical = LogicalTopology(
        nodes=("s", "t"), links=(("s", "t"),), source="s", sink="t", directed=True
    )
    net = LayeredNetwork(
        physical=physical, logical=logical, routing=LightpathRouting(routes=((1,),))
    )
    buf = io.StringIO()
    write_lnet(net, buf)
    assert buf.getvalue().startswith("lnet 1 directed\n")
    again = read_lnet(io.StringIO(buf.getvalue()))
    assert again == net
    assert again.logical.directed


def _named_net(pnodes, lnodes) -> LayeredNetwork:
    """One s-t fiber and one s-t link over it, with extra node names."""
    physical = PhysicalTopology(nodes=pnodes, fibers=(("s", pnodes[-1]),))
    logical = LogicalTopology(
        nodes=lnodes, links=(("s", lnodes[-1]),), source="s", sink=lnodes[-1]
    )
    return LayeredNetwork(
        physical=physical, logical=logical, routing=LightpathRouting(routes=((1,),))
    )


@pytest.mark.parametrize(
    "net, message",
    [
        (_named_net(("s", "", "t"), ("s", "t")), "physical node ''"),
        (_named_net(("s", "a b", "t"), ("s", "t")), "physical node 'a b'"),
        (_named_net(("s", "a\x0cb", "t"), ("s", "t")), "physical node 'a\\x0cb'"),
        (_named_net(("s", "a b", "t"), ("s", "a b", "t")), "physical node 'a b'"),
        (_named_net(("s", "x", "t"), ("s", "x y", "t")), "logical node 'x y'"),
        (_named_net(("s", "t:"), ("s", "t:")), "logical node 't:'"),
    ],
)
def test_write_lnet_rejects_a_name_it_cannot_read_back(net, message, tmp_path):
    buf = io.StringIO()
    with pytest.raises(ValidationError, match=re.escape(f"cannot write {message} to .lnet")):
        write_lnet(net, buf)
    assert buf.getvalue() == ""
    target = tmp_path / "net.lnet"
    with pytest.raises(ValidationError):
        write_lnet(net, str(target))
    assert not target.exists()


def test_write_lnet_keeps_a_colon_in_a_physical_only_name():
    net = _named_net(("s", "x:", "t"), ("s", "t"))
    buf = io.StringIO()
    write_lnet(net, buf)
    assert read_lnet(io.StringIO(buf.getvalue())) == net


def test_lnet_round_trip_random_layered():
    rng = Random("lnet-roundtrip")
    for _ in range(20):
        net = random_parallel_layered(rng)
        buf = io.StringIO()
        write_lnet(net, buf)
        assert read_lnet(io.StringIO(buf.getvalue())) == net


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("pnodes s t\n", "header"),
        ("lnet 1 sideways\npnodes s t\n", "flag"),
        ("lnet 1\nlnodes s t\n", "pnodes"),
        ("lnet 1\npnodes s t\npfibers\n2 s t\n", "fiber id"),
        (
            "lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\n",
            "st",
        ),
        (
            "lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 9\nst s t\n",
            "fiber",
        ),
        (
            "lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\nst s t\nextra\n",
            "trailing",
        ),
    ],
)
def test_lnet_parse_errors(text, fragment):
    with pytest.raises(ValidationError, match=fragment):
        read_lnet(io.StringIO(text))


# ---------------------------------------------------------------------------
# Documented examples
# ---------------------------------------------------------------------------


def _documented_examples() -> list[tuple[str, str]]:
    """Every ``.spn``/``.lnet`` example block in README.md and the formats docstring."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    fenced = re.findall(r"^```[^\n]*\n(.*?)^```$", readme, re.S | re.M)
    indented = re.findall(r"::\n\n((?:    .*\n|\n)+)", formats.__doc__)
    blocks = [("README", b) for b in fenced]
    blocks += [("formats docstring", textwrap.dedent(b)) for b in indented]
    return [(where, b) for where, b in blocks if b.split(None, 1)[0] in ("spn", "lnet")]


def test_every_format_is_documented_in_both_places():
    found = sorted((where, block.split(None, 1)[0]) for where, block in _documented_examples())
    assert found == [
        ("README", "lnet"),
        ("README", "spn"),
        ("formats docstring", "lnet"),
        ("formats docstring", "spn"),
    ]


@pytest.mark.parametrize("where, block", _documented_examples())
def test_documented_example_parses(where, block):
    reader = read_spn if block.startswith("spn") else read_lnet
    reader(io.StringIO(block))


# ---------------------------------------------------------------------------
# Packaged instances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, fibers, paths",
    [
        ("pairwise3.spn", 3, 3),
        ("uncoverable.spn", 2, 2),
        ("nonadditive.spn", 8, 4),
    ],
)
def test_packaged_instances_parse(name, fibers, paths):
    location = packaged_instance(name)
    assert Path(str(location)).name == name
    inst = read_spn(location)
    assert inst.num_fibers == fibers
    assert inst.matrix().num_paths == paths


def test_unknown_packaged_instance():
    with pytest.raises(ValidationError):
        packaged_instance("missing.spn")

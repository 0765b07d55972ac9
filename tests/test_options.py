import re
from dataclasses import fields

import pytest

from atlab import SolverOptions, eulerian
from atlab.cli import main


def test_defaults():
    opts = SolverOptions()
    assert eulerian.ENUM_CAP == 24
    assert eulerian.POLY_BUDGET == 2_000_000
    assert opts.search_edge_cap == 20
    assert opts.threads == 1
    assert opts.time_budget is None


def test_solver_options_hold_only_what_a_solve_reads():
    # a diff is a function of the orientation: the diff engines' gates are
    # constants of `eulerian`, not options
    assert {f.name for f in fields(SolverOptions)} == {"search_edge_cap", "threads",
                                                       "time_budget"}
    for field in ("enum_cap", "poly_budget"):
        with pytest.raises(TypeError, match=field):
            SolverOptions(**{field: 24})


def test_with_returns_new_instance():
    base = SolverOptions()
    tweaked = base.with_(search_edge_cap=30)
    assert tweaked.search_edge_cap == 30 and base.search_edge_cap == 20


@pytest.mark.parametrize("budget", [float("nan"), -1.0, -0.5, True, "1"])
def test_time_budget_must_be_a_number_of_seconds(budget):
    # NaN compares false with every deadline, so that deadline never passes;
    # True would pass as one second
    with pytest.raises(ValueError, match=f"got {re.escape(repr(budget))}$"):
        SolverOptions(time_budget=budget)
    with pytest.raises(ValueError):
        SolverOptions().with_(time_budget=budget)
    assert SolverOptions(time_budget=0).time_budget == 0
    assert SolverOptions(time_budget=2.5).time_budget == 2.5


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_cli_rejects_a_bad_time_budget(tmp_path, capsys, budget):
    gpath = tmp_path / "c5.graph"
    main(["gen", "cycle", "5", "-o", str(gpath)])
    capsys.readouterr()
    assert main(["at", str(gpath), "--time-budget", budget]) == 2
    assert "time_budget" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["search_edge_cap"])
def test_caps_must_not_be_negative(field):
    # a negative cap switched its engine off without a word: at
    # search_edge_cap=-5, C3 x C3 came out as the bracket [3, 5]
    for value in (-1, -5):
        with pytest.raises(ValueError, match=field):
            SolverOptions(**{field: value})
        with pytest.raises(ValueError, match=field):
            SolverOptions().with_(**{field: value})
    assert getattr(SolverOptions(**{field: 0}), field) == 0


@pytest.mark.parametrize("cap", [True, 2.5, "20", None])
def test_search_edge_cap_must_be_an_int(cap):
    # True would pass as a cap of 1 and 2.5 compares with an edge count, so
    # only an int is a cap
    with pytest.raises(ValueError, match=rf"search_edge_cap .*got {re.escape(repr(cap))}$"):
        SolverOptions(search_edge_cap=cap)
    with pytest.raises(ValueError, match="search_edge_cap"):
        SolverOptions().with_(search_edge_cap=cap)


@pytest.mark.parametrize("flag, field", [("--edge-cap", "search_edge_cap")])
def test_cli_rejects_a_negative_cap(tmp_path, capsys, flag, field):
    gpath = tmp_path / "c5.graph"
    main(["gen", "cycle", "5", "-o", str(gpath)])
    capsys.readouterr()
    assert main(["at", str(gpath), flag, "-1"]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("at", "--enum-cap"), ("diff", "--enum-cap"), ("verify", "--enum-cap"),
    ("theorems", "--enum-cap"), ("at", "--poly-budget"), ("verify", "--poly-budget"),
    ("theorems", "--poly-budget"),
])
def test_engine_cap_flags_are_gone(tmp_path, capsys, command, flag):
    # every command that took a diff engine's cap now rejects the flag as an
    # unknown argument: the caps are constants of `eulerian`
    gpath = tmp_path / "c5.graph"
    main(["gen", "cycle", "5", "-o", str(gpath)])
    capsys.readouterr()
    given = [] if command == "theorems" else [str(gpath)]
    with pytest.raises(SystemExit) as exc:
        main([command, *given, flag, "30"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_env_feeds_cli(tmp_path, capsys, monkeypatch):
    # no flag reaches the tally's cap: `atlab diff` reads the constant
    # eulerian.ENUM_CAP alone
    gpath = tmp_path / "c6.graph"
    main(["gen", "cycle", "6", "-o", str(gpath)])
    arcs = tmp_path / "arcs.txt"
    arcs.write_text("\n".join(f"{i} {(i + 1) % 6}" for i in range(6)) + "\n")
    capsys.readouterr()
    # 6 arcs > cap 4: capacity exit
    monkeypatch.setattr(eulerian, "ENUM_CAP", 4)
    assert main(["diff", str(gpath), str(arcs)]) == 3
    monkeypatch.setattr(eulerian, "ENUM_CAP", 6)
    assert main(["diff", str(gpath), str(arcs)]) == 0


def test_at_runs_the_level_search_by_default(tmp_path, capsys):
    g1 = tmp_path / "c3.graph"
    main(["gen", "cycle", "3", "-o", str(g1)])
    prod = tmp_path / "c3c3.graph"
    main(["product", str(g1), str(g1), "-o", str(prod)])
    capsys.readouterr()
    code = main(["at", str(prod), "--edge-cap", "24"])
    out = capsys.readouterr().out
    assert code == 0 and "AT = 4" in out


@pytest.mark.parametrize(
    "flag", [["--parallel"], ["--threads", "2"], ["--exact"], ["--bipartite"], ["--bounds"]]
)
def test_thread_flags_are_gone(tmp_path, capsys, flag):
    # the solvers run in one process, and the default mode takes the closed
    # form on bipartite input and the level search elsewhere; the flags that
    # claimed otherwise are rejected as unknown arguments. `--time-budget 0`
    # gives the bounds-only bracket that `--bounds` gave
    gpath = tmp_path / "c3.graph"
    main(["gen", "cycle", "3", "-o", str(gpath)])
    with pytest.raises(SystemExit) as exc:
        main(["at", str(gpath)] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("diff", "--edge-cap"), ("diff", "--poly-budget"), ("diff", "--time-budget"),
    ("verify", "--edge-cap"), ("verify", "--time-budget"),
])
def test_commands_take_only_the_budget_flags_they_read(capsys, command, flag):
    # `diff` runs the tally alone and `verify` no search, so a search or time
    # budget there would be accepted and ignored; the parser rejects it first
    with pytest.raises(SystemExit) as exc:
        main([command, "some.cert", flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_emitted_certificates_reverify(tmp_path, capsys):
    for family, n in [("hypercube", "4"), ("cycle", "5")]:
        gpath = tmp_path / f"{family}{n}.graph"
        cpath = tmp_path / f"{family}{n}.cert"
        main(["gen", family, n, "-o", str(gpath)])
        assert main(["at", str(gpath), "--cert", str(cpath)]) == 0
        capsys.readouterr()
        assert main(["verify", str(cpath)]) == 0
        assert "accepted" in capsys.readouterr().out

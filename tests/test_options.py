import pytest

from atlab import SolverOptions
from atlab.cli import main


def test_defaults():
    opts = SolverOptions()
    assert opts.enum_cap == 24
    assert opts.search_edge_cap == 20
    assert opts.threads == 1
    assert opts.time_budget is None


def test_with_returns_new_instance():
    base = SolverOptions()
    tweaked = base.with_(enum_cap=30)
    assert tweaked.enum_cap == 30 and base.enum_cap == 24


def test_env_feeds_cli(tmp_path, capsys):
    # the budgets reach the CLI through flags alone
    gpath = tmp_path / "c6.graph"
    main(["gen", "cycle", "6", "-o", str(gpath)])
    arcs = tmp_path / "arcs.txt"
    arcs.write_text("\n".join(f"{i} {(i + 1) % 6}" for i in range(6)) + "\n")
    capsys.readouterr()
    # 6 arcs > cap 4: capacity exit
    assert main(["diff", str(gpath), str(arcs), "--enum-cap", "4"]) == 3
    assert main(["diff", str(gpath), str(arcs), "--enum-cap", "6"]) == 0


def test_at_runs_the_level_search_by_default(tmp_path, capsys):
    g1 = tmp_path / "c3.graph"
    main(["gen", "cycle", "3", "-o", str(g1)])
    prod = tmp_path / "c3c3.graph"
    main(["product", str(g1), str(g1), "-o", str(prod)])
    capsys.readouterr()
    code = main(["at", str(prod), "--edge-cap", "24"])
    out = capsys.readouterr().out
    assert code == 0 and "AT = 4" in out


@pytest.mark.parametrize("flag", [["--parallel"], ["--threads", "2"], ["--exact"]])
def test_thread_flags_are_gone(tmp_path, capsys, flag):
    # the solvers run in one process and the level search is the default
    # mode; the flags that claimed otherwise are rejected as unknown arguments
    gpath = tmp_path / "c3.graph"
    main(["gen", "cycle", "3", "-o", str(gpath)])
    with pytest.raises(SystemExit) as exc:
        main(["at", str(gpath)] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_emitted_certificates_reverify(tmp_path, capsys):
    for family, n, mode in [("hypercube", "4", ["--bipartite"]), ("cycle", "5", [])]:
        gpath = tmp_path / f"{family}{n}.graph"
        cpath = tmp_path / f"{family}{n}.cert"
        main(["gen", family, n, "-o", str(gpath)])
        assert main(["at", str(gpath), *mode, "--cert", str(cpath)]) == 0
        capsys.readouterr()
        assert main(["verify", str(cpath)]) == 0
        assert "accepted" in capsys.readouterr().out

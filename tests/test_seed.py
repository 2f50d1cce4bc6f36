"""One seed rule: ``config.resolve_seed`` decides every seed, and a bad seed
anywhere exits 2 with a message naming its source, never a traceback."""

import json

import pytest

from biaslab.catalog import catalog_config
from biaslab.cli import main as cli_main
from biaslab.config import parse_config, resolve_seed, run_scenario
from biaslab.errors import ValidationError

MC = "entry7-confounder-pp-mc"
POP = "entry5-sampling-random"


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("BIASLAB_SEED", raising=False)


def _cli(capsys, tmp_path, *argv, doc=None):
    """Run the command line in process; ``doc`` is written as ``--config``."""
    if doc is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        argv = (*argv, "--config", str(path))
    rc = cli_main(list(argv))
    return rc, capsys.readouterr()


def _mc_doc(**mc):
    doc = catalog_config(MC)
    doc["mc"].update(mc)
    return doc


def _without(doc, *path):
    *parents, leaf = path
    target = doc
    for key in parents:
        target = target[key]
    del target[leaf]
    return doc


class TestResolver:
    def test_flag_then_fallbacks_in_order_then_env(self, monkeypatch):
        assert resolve_seed(3, ("mc.seed", 4), ("seed", 5)) == (3, "--seed")
        assert resolve_seed(None, ("mc.seed", 4), ("seed", 5)) == (4, "mc.seed")
        assert resolve_seed(None, ("mc.seed", None), ("seed", 5)) == (5, "seed")
        monkeypatch.setenv("BIASLAB_SEED", "6")
        assert resolve_seed(None, ("mc.seed", None), ("seed", None)) == (6, "BIASLAB_SEED")

    @pytest.mark.parametrize("bad", [-1, 2**64, True, False, 1.0, "5", [1]])
    def test_bad_winner_names_its_source(self, bad):
        with pytest.raises(ValidationError, match=r"^mc\.seed: "):
            resolve_seed(None, ("mc.seed", bad), ("seed", 5))

    def test_losing_fallback_is_not_consulted(self, monkeypatch):
        monkeypatch.setenv("BIASLAB_SEED", "-5")
        assert resolve_seed(2**64 - 1, ("seed", -1)) == (2**64 - 1, "--seed")

    def test_env_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("BIASLAB_SEED", "abc")
        with pytest.raises(ValidationError, match="BIASLAB_SEED"):
            resolve_seed(None)

    @pytest.mark.parametrize("bad", ["--5", "+-3", "-+3", "++3", "5-", "1 2", "1_000"])
    def test_env_with_misplaced_signs_is_no_integer(self, monkeypatch, bad):
        # one sign at most, and only before the digits; int() is never asked
        monkeypatch.setenv("BIASLAB_SEED", bad)
        with pytest.raises(ValidationError, match=r"^BIASLAB_SEED: must be an integer"):
            resolve_seed(None)

    @pytest.mark.parametrize("text, seed", [(" 7 ", 7), ("+8", 8), ("\t+9\n", 9)])
    def test_env_integer_text(self, monkeypatch, text, seed):
        monkeypatch.setenv("BIASLAB_SEED", text)
        assert resolve_seed(None) == (seed, "BIASLAB_SEED")

    def test_no_seed_anywhere(self):
        with pytest.raises(ValidationError, match="no seed"):
            resolve_seed(None, ("seed", None))


class TestPrecedence:
    """The table in README, read off the master seed each MC result keeps."""

    def test_mc_master_seed(self, monkeypatch):
        cfg = parse_config(catalog_config(MC)).with_reps(1)  # seed 1992, mc.seed 1992
        assert run_scenario(cfg, seed=5).mc_result.master_seed == 5
        cfg = parse_config(_mc_doc(seed=11)).with_reps(1)
        assert run_scenario(cfg).mc_result.master_seed == 11
        cfg = parse_config(_without(catalog_config(MC), "mc", "seed")).with_reps(1)
        assert run_scenario(cfg).mc_result.master_seed == 1992
        monkeypatch.setenv("BIASLAB_SEED", "77")
        cfg = parse_config(_without(_without(catalog_config(MC), "mc", "seed"), "seed")).with_reps(1)
        assert run_scenario(cfg).mc_result.master_seed == 77

    def test_mc_seed_alone_is_enough(self):
        cfg = parse_config(_without(_mc_doc(seed=11), "seed")).with_reps(1)
        assert run_scenario(cfg).mc_result.master_seed == 11

    def test_sampling_master_seed(self, monkeypatch):
        doc = catalog_config(POP)  # seed 7, no sampling.seed
        doc["population"]["scm"]["n"] = 2000
        doc["population"]["scm"]["sources"][0]["params"]["k"] = 1000
        doc["population"]["sampling"]["k"] = 50
        cfg = parse_config(doc).with_reps(1)
        assert run_scenario(cfg).mc_result.master_seed == 8
        assert run_scenario(cfg, seed=5).mc_result.master_seed == 6
        assert run_scenario(cfg, seed=2**64 - 1).mc_result.master_seed == 0
        doc["population"]["sampling"]["seed"] = 40
        cfg = parse_config(doc).with_reps(1)
        assert run_scenario(cfg).mc_result.master_seed == 40
        assert run_scenario(cfg, seed=5).mc_result.master_seed == 6
        monkeypatch.setenv("BIASLAB_SEED", "20")
        cfg = parse_config(_without(_without(doc, "population", "sampling", "seed"), "seed")).with_reps(1)
        assert run_scenario(cfg).mc_result.master_seed == 21


class TestBadSeedsExit2:
    """Every case used to end in a traceback, a runtime exit 3, or a silent
    acceptance."""

    @pytest.mark.parametrize("bad", [2**64, -1])
    def test_embedded_mc_seed_out_of_range(self, capsys, tmp_path, bad):
        for cmd in ("run", "mc"):
            rc, io = _cli(capsys, tmp_path, cmd, "--reps", "2", doc=_mc_doc(seed=bad))
            assert rc == 2 and "mc.seed" in io.err and "Traceback" not in io.err

    def test_embedded_sampling_seed_out_of_range(self, capsys, tmp_path):
        doc = catalog_config(POP)
        doc["population"]["sampling"]["seed"] = -1
        rc, io = _cli(capsys, tmp_path, "run", "--reps", "2", doc=doc)
        assert rc == 2 and "population.sampling.seed" in io.err

    def test_negative_env_seed_on_an_unseeded_mc_config(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BIASLAB_SEED", "-5")
        doc = _without(_without(catalog_config(MC), "mc", "seed"), "seed")
        for cmd in ("run", "mc"):
            rc, io = _cli(capsys, tmp_path, cmd, "--reps", "2", doc=doc)
            assert rc == 2 and "BIASLAB_SEED" in io.err

    def test_mc_subcommand_negative_flag(self, capsys, tmp_path):
        rc, io = _cli(capsys, tmp_path, "mc", "--catalog", MC, "--reps", "2", "--seed", "-3")
        assert rc == 2 and "--seed" in io.err

    @pytest.mark.parametrize("where", ["seed", "mc.seed"])
    def test_bool_seed(self, capsys, tmp_path, where):
        doc = catalog_config(MC)
        (doc["mc"] if where == "mc.seed" else doc)["seed"] = True
        rc, io = _cli(capsys, tmp_path, "run", "--reps", "2", doc=doc)
        assert rc == 2 and f"{where}: " in io.err

    @pytest.mark.parametrize("where", ["seed", "mc.seed", "population.sampling.seed"])
    def test_null_seed_names_its_field(self, capsys, tmp_path, where):
        # JSON null is a written seed, not a missing key: it used to run on the
        # next seed in line, or to fail with a "no seed" naming no field
        doc = catalog_config(POP if where.startswith("population") else MC)
        *parents, leaf = where.split(".")
        target = doc
        for key in parents:
            target = target[key]
        target[leaf] = None
        for flag in ((), ("--seed", "5")):
            rc, io = _cli(capsys, tmp_path, "run", "--reps", "2", *flag, doc=doc)
            assert (rc, io.err) == (2, f"validation error: {where}: must be an integer in [0, 2^64), got None\n")

    @pytest.mark.parametrize("flag", ["-1", str(2**64)])
    def test_static_scenario_flag_out_of_range(self, capsys, tmp_path, flag):
        rc, io = _cli(capsys, tmp_path, "run", "--catalog", "entry1-linearity", "--seed", flag)
        assert rc == 2 and "--seed" in io.err

    def test_static_scenario_env_out_of_range(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BIASLAB_SEED", "-5")
        rc, io = _cli(capsys, tmp_path, "run", doc=_without(catalog_config("entry1-linearity"), "seed"))
        assert rc == 2 and "BIASLAB_SEED" in io.err

    @pytest.mark.parametrize("bad", ["--5", "+-3"])
    def test_env_seed_with_two_signs(self, capsys, tmp_path, monkeypatch, bad):
        monkeypatch.setenv("BIASLAB_SEED", bad)
        rc, io = _cli(capsys, tmp_path, "run", doc=_without(catalog_config("entry1-linearity"), "seed"))
        assert rc == 2 and f"BIASLAB_SEED: must be an integer in [0, 2^64), got {bad!r}" in io.err


def test_run_flag_beats_the_embedded_mc_seed(tmp_path):
    outs = []
    for seed in ("5", "6"):
        assert cli_main(["run", "--catalog", MC, "--reps", "3", "--seed", seed,
                         "--out", str(tmp_path / seed)]) == 0
        outs.append((tmp_path / seed / "loop.csv").read_bytes())
    assert outs[0] != outs[1]


def test_run_and_mc_subcommand_write_the_same_loop(tmp_path):
    assert cli_main(["run", "--catalog", MC, "--reps", "3", "--seed", "5",
                     "--out", str(tmp_path / "run")]) == 0
    assert cli_main(["mc", "--catalog", MC, "--reps", "3", "--seed", "5",
                     "--out", str(tmp_path / "mc")]) == 0
    assert (tmp_path / "run" / "loop.csv").read_bytes() == (tmp_path / "mc" / f"{MC}.csv").read_bytes()

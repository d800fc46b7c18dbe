import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from filtbem.cli import (ExperimentConfig, _solve_one, main,
                         parse_config_file, resolve_config, run_refinement,
                         run_spectra, run_table)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfig:
    def test_file_parsing(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# experiment setup\n"
            "geometry = perturbed_circle\n"
            "k = 0.5\n"
            "filter_n = 40   # cutoff\n"
            "sizes = 64, 128, 256\n"
            "yukawa = false\n")
        values = parse_config_file(cfg_file)
        assert values["geometry"] == "perturbed_circle"
        assert values["k"] == 0.5
        assert values["filter_n"] == 40
        assert values["sizes"] == (64, 128, 256)
        assert values["yukawa"] is False

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nonsense = 1\n")
        with pytest.raises(ValueError):
            parse_config_file(cfg_file)

    def test_flags_override_file(self, tmp_path):
        cfg = resolve_config("refine", {"k": 0.5, "epsilon": 1e-4},
                             {"k": 0.7})
        assert cfg.k == 0.7
        assert cfg.epsilon == 1e-4
        assert cfg.filter_n == 21  # refine default preserved

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            resolve_config("spectra", {}, {"epsilon": 2.0})
        with pytest.raises(ValueError):
            resolve_config("spectra", {}, {"formulation": "nope"})
        with pytest.raises(ValueError):
            resolve_config("spectra", {}, {"k": -1.0})

    def test_exit_codes(self, tmp_path):
        # validation error -> 2 (filter larger than the mesh)
        code = main(["spectra", "--n", "64", "--filter-n", "100",
                     "--out", str(tmp_path)])
        assert code == 2
        code = main(["qh3d-check", "--out", str(tmp_path)])
        assert code == 0

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import filtbem.cli as cli_mod

        def boom(cfg, n_nodes):
            raise np.linalg.LinAlgError("synthetic singular system")

        monkeypatch.setattr(cli_mod, "_solve_one", boom)
        code = main(["table", "--sizes", "64,96,128", "--filter-n", "20",
                     "--out", str(tmp_path)])
        assert code == 3

    def test_table_keeps_rows_around_a_failed_size(self, tmp_path, monkeypatch):
        import filtbem.cli as cli_mod
        solve_one = cli_mod._solve_one

        def fail_at_96(cfg, n_nodes):
            if n_nodes == 96:
                raise np.linalg.LinAlgError("synthetic singular system")
            return solve_one(cfg, n_nodes)

        monkeypatch.setattr(cli_mod, "_solve_one", fail_at_96)
        code = main(["table", "--sizes", "64,96,128", "--filter-n", "20",
                     "--epsilon", "1e-3", "--out", str(tmp_path)])
        assert code == 3
        _, rows = read_csv(tmp_path / "table.csv")
        assert [(r[0], r[-1]) for r in rows] == [
            ("64", "ok"), ("96", "failed:synthetic singular system"),
            ("128", "ok")]

    def test_refine_keeps_rows_around_a_failed_size(self, tmp_path, monkeypatch):
        import filtbem.cli as cli_mod
        solve_one = cli_mod._solve_one

        def fail_at_96(cfg, n_nodes):
            if n_nodes == 96:
                raise np.linalg.LinAlgError("synthetic singular system")
            return solve_one(cfg, n_nodes)

        monkeypatch.setattr(cli_mod, "_solve_one", fail_at_96)
        code = main(["refine", "--geometry", "circle", "--a", "1.0",
                     "--sizes", "48,96,192", "--filter-n", "13",
                     "--epsilon", "1e-4", "--out", str(tmp_path)])
        assert code == 3
        _, rows = read_csv(tmp_path / "refine.csv")
        assert [(r[0], r[-1]) for r in rows] == [
            ("48", "ok"), ("96", "failed:synthetic singular system"),
            ("192", "ok")]
        meta = json.loads((tmp_path / "refine_meta.json").read_text())
        assert [cut["n_nodes"] for cut in meta["filter_cut"]] == [48, 192]

    @pytest.mark.parametrize("argv, config, key", [
        (["--seed", "-1"], "", "seed"),
        ([], "source = plane\nsource_dir_x = 0\n", "source_dir_x"),
        ([], "source = laser\n", "source"),
        (["--geometry", "square"], "", "geometry"),
        (["--sizes", "192,96,48", "--filter-n", "60"], "", "filter_n"),
    ])
    def test_config_checked_before_any_assembly(self, tmp_path, monkeypatch,
                                                 capsys, argv, config, key):
        import filtbem.cli as cli_mod
        calls = []
        monkeypatch.setattr(cli_mod, "assemble_operators",
                            lambda *args, **kwargs: calls.append(args))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(config)
        code = main(["refine", "--sizes", "48,96,192", "--filter-n", "13",
                     "--config", str(cfg_file), "--out", str(tmp_path)]
                    + argv)
        assert code == 2
        assert calls == []
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--sizes", ","],
        ["--sizes", "2008,4016", "--max-n", "1004"],
    ])
    def test_table_with_nothing_to_solve_is_rejected(self, tmp_path, monkeypatch,
                                                     capsys, argv):
        import filtbem.cli as cli_mod
        calls = []
        monkeypatch.setattr(cli_mod, "assemble_operators",
                            lambda *args, **kwargs: calls.append(args))
        code = main(["table", "--out", str(tmp_path)] + argv)
        assert code == 2
        assert calls == []
        assert not (tmp_path / "table.csv").exists()
        assert "sizes" in capsys.readouterr().err

    def test_config_file_through_main(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("geometry = circle\na = 1.0\nn = 64\n"
                            "filter_n = 13\nepsilon = 1e-4\nseed = 5\n")
        out = tmp_path / "out"
        code = main(["spectra", "--config", str(cfg_file), "--n", "96",
                     "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "spectra_meta.json").read_text())
        assert meta["config"]["n"] == 96        # flag overrides file
        assert meta["config"]["filter_n"] == 13  # file overrides default
        assert meta["config"]["geometry"] == "circle"


def _flag_values(tmp_path):
    """A valid value, not the default, for every configuration key."""
    return {
        "geometry": "perturbed_circle", "a": 1.5, "b": 1.1, "r0": 2.5,
        "amp": 0.1, "lobes": 6, "k": 0.7, "eta": 2.0, "source": "plane",
        "source_x": 4.0, "source_y": 1.0, "source_dir_x": 0.5,
        "source_dir_y": 1.5, "formulation": "cfie", "alpha": 0.3,
        "filter_n": 40, "epsilon": 1e-5, "n": 96, "sizes": (64, 128, 256),
        "max_n": 512, "quad_order": 10, "seed": 7, "yukawa": True,
        "out": str(tmp_path / "elsewhere"),
    }


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_every_config_key_is_a_flag(tmp_path, monkeypatch, key):
    import filtbem.cli as cli_mod
    resolved = []

    def stop(cfg, n_nodes):
        resolved.append(cfg)
        raise np.linalg.LinAlgError("stop before assembly")

    monkeypatch.setattr(cli_mod, "_set_up", stop)
    value = _flag_values(tmp_path)[key]
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    assert value != getattr(ExperimentConfig(), key)
    assert main(["spectra", "--" + key.replace("_", "-"), text]) == 3
    assert getattr(resolved[0], key) == value


@pytest.mark.parametrize("command", ["spectra", "refine", "table", "qh3d-check"])
def test_help_shows_the_commands_own_defaults(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    defaults = resolve_config(command, {}, {})
    for key in ("filter_n", "epsilon", "geometry", "sizes"):
        value = getattr(defaults, key)
        shown = ",".join(map(str, value)) if key == "sizes" else value
        flag = "--" + key.replace("_", "-")
        assert f"{flag} {key.upper()} default: {shown}" in text


@pytest.fixture(scope="module")
def small_spectra(tmp_path_factory):
    out = tmp_path_factory.mktemp("spectra")
    cfg = resolve_config("spectra", {}, {
        "geometry": "circle", "a": 1.0, "n": 96, "filter_n": 21,
        "epsilon": 1e-4, "out": str(out), "seed": 3,
    })
    rows = run_spectra(cfg)
    return out, rows, cfg


class TestSpectra:
    def test_csv_schema(self, small_spectra):
        out, rows, _ = small_spectra
        header, csv_rows = read_csv(out / "spectra.csv")
        assert header == ["mode_index", "proj_C", "proj_Cfiltered",
                          "proj_UV", "proj_rhs", "kept_flag"]
        assert len(csv_rows) == 96
        assert csv_rows[0][0] == "0"
        # doubles round-trip at 17 significant digits
        assert float(csv_rows[3][1]) == rows[3][1]

    def test_filtered_projection_dead_above_cutoff(self, small_spectra):
        _, rows, cfg = small_spectra
        proj_filtered = np.array([r[2] for r in rows])
        assert proj_filtered[cfg.filter_n:].max() <= 1e-12 * proj_filtered.max()

    def test_raw_projection_grows(self, small_spectra):
        _, rows, _ = small_spectra
        proj_raw = np.array([r[1] for r in rows])
        decile = max(len(proj_raw) // 10, 1)
        assert proj_raw[-decile:].max() > np.median(proj_raw[:50])

    def test_metadata_sidecar(self, small_spectra):
        out, _, cfg = small_spectra
        meta = json.loads((out / "spectra_meta.json").read_text())
        assert meta["command"] == "spectra"
        assert meta["seed"] == cfg.seed
        assert meta["config"]["n"] == 96
        assert meta["formulation"] == "efie"
        assert "version" in meta
        env = meta["environment"]
        assert set(env) == {"numpy", "scipy", "OPENBLAS_NUM_THREADS",
                            "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert meta["quadrature"] == {"near_order": 8, "far_order": 4,
                                      "far_radius": 20.0, "touching_order": 24}
        # uniform circle, cut between the pairs m = 10 and m = 11
        [cut] = meta["filter_cut"]
        assert cut["n_nodes"] == 96 and not cut["canonicalized"]
        assert cut["gap"] == pytest.approx(1 - 100 / 121, abs=0.01)  # 0.18 at N=96

    def test_seeded_rerun_bit_identical(self, tmp_path):
        outs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            cfg = resolve_config("spectra", {}, {
                "geometry": "circle", "a": 1.0, "n": 64, "filter_n": 13,
                "epsilon": 1e-4, "out": str(out), "seed": 11,
            })
            run_spectra(cfg)
            outs.append((out / "spectra.csv").read_bytes())
        assert outs[0] == outs[1]


@pytest.mark.parametrize("formulation", ["efie", "mfie", "cfie"])
def test_spectra_raw_block_is_the_configured_formulation(tmp_path, formulation):
    # the filter keeps modes 0..filter_n-1 (the null mode passes through),
    # so there the raw and filtered projections of one block coincide
    cfg = resolve_config("spectra", {}, {
        "n": 128, "filter_n": 21, "formulation": formulation,
        "epsilon": 1e-4, "out": str(tmp_path)})
    rows = run_spectra(cfg)
    proj_raw = np.array([r[1] for r in rows])
    proj_filtered = np.array([r[2] for r in rows])
    kept = slice(0, cfg.filter_n)
    assert (np.abs(proj_raw[kept] - proj_filtered[kept]).max()
            <= 1e-12 * proj_raw.max())


def test_spectra_basis_starts_with_the_filters_own_modes(tmp_path, monkeypatch):
    # the 8-fold symmetric curve keeps the pair m = 15 degenerate, so the
    # cut at 30 splits it and is made canonical
    import filtbem.cli as cli_mod
    from filtbem.calderon2d import filter_modes
    seen = {}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]
        return wrapped

    monkeypatch.setattr(cli_mod, "_set_up", spy("set_up", cli_mod._set_up))
    monkeypatch.setattr(cli_mod, "canonical_modes",
                        spy("modes", cli_mod.canonical_modes))
    cfg = resolve_config("spectra", {}, {
        "geometry": "perturbed_circle", "n": 128, "filter_n": 30,
        "out": str(tmp_path)})
    run_spectra(cfg)
    ops, system, _ = seen["set_up"]
    kept = seen["modes"].vectors[:, :30]
    own = filter_modes(ops, 30).vectors
    assert np.abs(kept @ kept.T - own @ own.T).max() <= 1e-12
    assert seen["modes"].cut_canonicalized and system.cut_canonicalized
    meta = json.loads((tmp_path / "spectra_meta.json").read_text())
    assert meta["filter_cut"] == [{"n_nodes": 128, "gap": system.cut_gap,
                                   "canonicalized": True}]


class TestRefine:
    def test_csv_and_trends(self, tmp_path):
        cfg = resolve_config("refine", {}, {
            "geometry": "circle", "a": 1.0, "sizes": "48,96,192",
            "filter_n": 13, "epsilon": 1e-4, "out": str(tmp_path), "seed": 0,
        })
        rows = run_refinement(cfg)
        header, csv_rows = read_csv(tmp_path / "refine.csv")
        assert header == ["N", "inv_h", "rel_error_vs_dense", "skeleton_rank",
                          "factorize_ms", "apply_ms", "status"]
        assert [r[0] for r in rows] == [48, 96, 192]
        assert all(r[-1] == "ok" for r in rows)
        inv_h = [r[1] for r in rows]
        assert inv_h[1] / inv_h[0] == pytest.approx(2.0, rel=0.01)
        assert inv_h[2] / inv_h[1] == pytest.approx(2.0, rel=0.01)

    def test_meta_records_each_skeleton(self, tmp_path, monkeypatch):
        import filtbem.cli as cli_mod
        factor = cli_mod.lowrank_factor
        monkeypatch.setattr(
            cli_mod, "lowrank_factor", lambda *args, **kwargs: dataclasses.replace(
                factor(*args, **kwargs), converged=False))
        code = main(["refine", "--geometry", "circle", "--a", "1.0",
                     "--sizes", "48,96,192", "--filter-n", "13",
                     "--epsilon", "1e-4", "--out", str(tmp_path)])
        assert code == 0
        header, _ = read_csv(tmp_path / "refine.csv")
        assert header[-1] == "status"
        meta = json.loads((tmp_path / "refine_meta.json").read_text())
        records = meta["skeleton"]
        assert [rec["n_nodes"] for rec in records] == [48, 96, 192]
        for rec in records:
            assert rec["converged"] is False
            assert 1 <= rec["rank"] <= 13
            assert 0 < rec["achieved_error"] <= 1e-4 < rec["norm_estimate"]
            assert 1 <= rec["core_cond"] < 1e8

    def test_needs_three_sizes(self, tmp_path):
        cfg = resolve_config("refine", {}, {
            "sizes": "48,96", "out": str(tmp_path)})
        with pytest.raises(ValueError):
            run_refinement(cfg)


    def test_quad_order_reaches_the_operators(self, tmp_path, monkeypatch):
        import filtbem.cli as cli_mod
        assemble = cli_mod.assemble_operators
        orders = []

        def spy(mesh, k, quad_order=8, **kwargs):
            orders.append(quad_order)
            return assemble(mesh, k, quad_order, **kwargs)

        monkeypatch.setattr(cli_mod, "assemble_operators", spy)
        code = main(["refine", "--geometry", "circle", "--a", "1.0",
                     "--sizes", "48,96,192", "--filter-n", "13",
                     "--epsilon", "1e-4", "--quad-order", "12",
                     "--out", str(tmp_path)])
        assert code == 0
        assert orders == [12, 12, 12]
        _, rows = read_csv(tmp_path / "refine.csv")
        assert all(r[-1] == "ok" for r in rows)


@pytest.mark.parametrize("command", [
    ["refine", "--sizes", "48,96,192"],
    ["spectra", "--n", "64"],
])
def test_yukawa_reaches_the_operators(tmp_path, monkeypatch, command):
    import filtbem.cli as cli_mod
    assemble = cli_mod.assemble_operators
    kinds = []

    def spy(mesh, k, quad_order=8, **kwargs):
        kinds.append(kwargs.get("slayer_kind", "helmholtz"))
        return assemble(mesh, k, quad_order, **kwargs)

    monkeypatch.setattr(cli_mod, "assemble_operators", spy)
    code = main(command + ["--filter-n", "13", "--epsilon", "1e-4", "--yukawa",
                           "--out", str(tmp_path)])
    assert code == 0
    assert kinds and set(kinds) == {"yukawa"}


def test_refine_rank_at_n512_stays_within_filter_n():
    # the filtered block has rank <= filter_n, so a larger skeleton means the
    # compressor's range basis lost orthonormality (this size once ran to
    # rank 512)
    cfg = resolve_config("refine", {}, {"seed": 0})
    assert _solve_one(cfg, 512)["inverse"].rank <= cfg.filter_n


@pytest.mark.parametrize("command, sizes", [
    (["refine", "--sizes", "48,96,192", "--filter-n", "13"], [48, 96, 192]),
    (["spectra", "--n", "64", "--filter-n", "13"], [64]),
])
def test_calderon_product_formed_once_per_size(tmp_path, monkeypatch,
                                               command, sizes):
    import filtbem.calderon2d as calderon_mod
    build = calderon_mod.build_calderon_matrix
    calls = []

    def counting(mesh, *args, **kwargs):
        calls.append(mesh.n_nodes)
        return build(mesh, *args, **kwargs)

    monkeypatch.setattr(calderon_mod, "build_calderon_matrix", counting)
    code = main(command + ["--epsilon", "1e-4", "--out", str(tmp_path)])
    assert code == 0
    assert calls == sizes


def test_dense_reference_formed_after_the_fast_path(monkeypatch):
    # _solve_one applies the structured inverse before it forms any N x N
    # block: the unfiltered split and its Calderon product come last
    import filtbem.calderon2d as calderon_mod
    import filtbem.cli as cli_mod
    from filtbem.solver import WoodburyInverse

    events = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(WoodburyInverse, "apply",
                        spy("apply", WoodburyInverse.apply))
    monkeypatch.setattr(cli_mod, "second_kind_split",
                        spy("split", cli_mod.second_kind_split))
    monkeypatch.setattr(calderon_mod, "build_calderon_matrix",
                        spy("calderon", calderon_mod.build_calderon_matrix))
    cfg = resolve_config("refine", {}, {"filter_n": 13, "epsilon": 1e-4})
    assert _solve_one(cfg, 96)["rel_error"] <= 1e-3
    assert events == ["apply", "split", "calderon"]


@pytest.mark.parametrize("command, argv, solved", [
    ("refine", ["--sizes", "48,64,96"], [48, 64, 96]),
    ("table", ["--sizes", "48,96,512", "--max-n", "100"], [48, 96]),
])
def test_meta_records_each_set_up(tmp_path, command, argv, solved):
    code = main([command, "--geometry", "circle", "--a", "1.0",
                 "--filter-n", "13", "--epsilon", "1e-4",
                 "--out", str(tmp_path)] + argv)
    assert code == 0
    _, rows = read_csv(tmp_path / f"{command}.csv")
    ok = [int(r[0]) for r in rows if r[-1] == "ok"]
    assert ok == solved
    meta = json.loads((tmp_path / f"{command}_meta.json").read_text())
    assert [rec["n_nodes"] for rec in meta["set_up"]] == ok
    for rec in meta["set_up"]:
        assert rec["seconds"] > 0 and rec["peak_rss_mb"] > 0
        stages = [rec["assemble_s"], rec["filter_s"], rec["compress_s"]]
        assert min(stages) >= 0 and sum(stages) <= rec["seconds"]
        # efie holds S G^{-1} and N, two complex N x N arrays, and the
        # banded root, O(N) bytes
        n = rec["n_nodes"]
        assert 0 < rec["operators_mb"] * 1e6 - 32 * n * n < 2000 * n


class TestTable:
    def test_skip_above_cap_and_schema(self, tmp_path):
        cfg = resolve_config("table", {}, {
            "sizes": "64,128,512", "max_n": 200, "filter_n": 30,
            "epsilon": 1e-3, "out": str(tmp_path), "seed": 0,
        })
        rows = run_table(cfg)
        header, csv_rows = read_csv(tmp_path / "table.csv")
        assert header == ["N", "rel_error", "dense_bytes", "skeleton_bytes",
                          "rank", "status"]
        assert rows[0][-1] == "ok" and rows[1][-1] == "ok"
        assert rows[2][-1] == "skipped:max_n"
        assert rows[0][2] == 16 * 64 * 64  # dense bytes
        # the 8-fold symmetric curve keeps the pair m = 15 degenerate, so
        # the cut at 30 splits it and is made canonical
        meta = json.loads((tmp_path / "table_meta.json").read_text())
        assert [(cut["n_nodes"], cut["canonicalized"])
                for cut in meta["filter_cut"]] == [(64, True), (128, True)]
        assert all(cut["gap"] < 1e-8 for cut in meta["filter_cut"])
        # solution error tracks the tolerance up to second-kind
        # amplification (the tight <= epsilon bound holds at real sizes
        # and is asserted by the acceptance suite)
        assert rows[0][1] <= 4e-3

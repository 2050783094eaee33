import csv

import pytest

from fogcache import experiment
from fogcache.cli import _CELL_KNOBS, main
from fogcache.experiment import CSV_COLUMNS, KNOBS, SCHEMES, ResultTable
from fogcache.graph import load_topology
from fogcache.synthetic import generate_synthetic_topology


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.txt"
    path.write_text("\n".join(f"{i} {i + 1}" for i in range(19)) + "\n")
    return path


@pytest.fixture
def split_file(tmp_path):
    """45 nodes in two components: a 5 x 5 grid (ids 0-24) that holds the
    origin, and a 20-node line (ids 100-119, dense ids 25-44) that cannot
    reach it and straddles the 32-id block boundary."""
    grid = [(r * 5 + c, r * 5 + c + d) for r in range(5) for c in range(5)
            for d in (1, 5) if (c < 4 if d == 1 else r < 4)]
    line = [(i, i + 1) for i in range(100, 119)]
    path = tmp_path / "split.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in grid + line))
    return path


@pytest.fixture
def line4_file(tmp_path):
    path = tmp_path / "line4.txt"
    path.write_text("0 1\n1 2\n2 3\n")
    return path


class TestTopologyCommands:
    def test_generate_roundtrips(self, tmp_path, capsys):
        out = tmp_path / "topo.txt"
        assert main(["topology", "generate", "--kind", "grid", "--nodes", "9",
                     "--seed", "1", "-o", str(out)]) == 0
        topo = load_topology(out.read_text())
        assert topo.node_count == 9
        assert topo == generate_synthetic_topology("grid", 9, 0.078, 1)

    def test_generate_to_stdout(self, capsys):
        assert main(["topology", "generate", "--kind", "grid",
                     "--nodes", "4"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("# nodes=4")

    def test_validate_reports_shape(self, line_file, capsys):
        assert main(["topology", "validate", str(line_file)]) == 0
        out = capsys.readouterr().out
        assert "nodes=20" in out and "components=1" in out

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert main(["topology", "validate", str(tmp_path / "nope.txt")]) == 2

    def test_empty_path_is_config_error(self, tmp_path, capsys, monkeypatch):
        # an empty path would name the working directory: a usage error, not
        # a runtime one
        monkeypatch.chdir(tmp_path)
        assert main(["topology", "validate", ""]) == 1
        assert "topology validate: empty path" in capsys.readouterr().err

    def test_bad_usage_is_config_error(self):
        assert main(["topology", "generate", "--kind", "dodecahedron"]) == 1

    def test_bad_generation_parameters(self):
        assert main(["topology", "generate", "--kind", "geometric",
                     "--nodes", "5", "--density", "0.0"]) == 1

    @pytest.mark.parametrize("kind", ["geometric", "erdos_renyi"])
    @pytest.mark.parametrize("density", ["nan", "-0.1"])
    def test_nan_or_negative_density(self, kind, density, capsys):
        assert main(["topology", "generate", "--kind", kind, "--nodes", "20",
                     f"--density={density}"]) == 1
        assert "density" in capsys.readouterr().err


class TestAnalysisCommands:
    def test_centrality_csv(self, line_file, capsys):
        assert main(["centrality", "--kind", "degree",
                     "--topology", str(line_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "node_id,kind,raw,normalized"
        assert len(lines) == 21

    def test_unconverged_eigenvector_is_runtime_error(self, tmp_path, capsys):
        # K8 on 0-7 and K8 on 8-15 joined by the path 0-16-17-18-8, with a
        # leaf 19 on node 16: power iteration needs 81 220 steps, past the
        # default budget
        edges = [(a, b) for k in (0, 8) for a in range(k, k + 8)
                 for b in range(a + 1, k + 8)]
        edges += [(0, 16), (16, 17), (17, 18), (18, 8), (16, 19)]
        path = tmp_path / "bridge.txt"
        path.write_text("".join(f"{a} {b}\n" for a, b in edges))
        assert main(["centrality", "--kind", "eigenvector",
                     "--topology", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: power iteration did not converge")
        assert "internal error" not in err

    def test_cbc_centrality_runs(self, line_file, capsys):
        assert main(["centrality", "--kind", "cbc",
                     "--topology", str(line_file)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 21

    def test_place_csv(self, line_file, capsys):
        assert main(["place", "--scheme", "cbc", "--topology", str(line_file),
                     "--buffer-items", "2", "--catalog-size", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "node_id,scheme,slot_index,item_rank,portion"
        assert len(lines) > 1

    def test_simulate_row(self, line_file, capsys):
        assert main(["simulate", "--scheme", "no_fog",
                     "--topology", str(line_file), "--interests", "50",
                     "--catalog-size", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        row = lines[1].split(",")
        assert row[1] == "no_fog"
        assert int(row[7]) == 50  # generated

    def test_simulate_lru_scheme(self, line_file, capsys):
        assert main(["simulate", "--scheme", "lru_social_unaware",
                     "--topology", str(line_file), "--interests", "50",
                     "--catalog-size", "10"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    @pytest.mark.parametrize("scheme,topology,knobs", [
        pytest.param(scheme, topology, knobs, id=scheme + suffix)
        for suffix, topology, knobs in (
            ("", "line_file", ["--interests", "50", "--catalog-size", "10"]),
            ("-defaults", "line_file", []),
            ("-non-default", "line_file", ["--buffer-items", "3",
                                           "--master-seed", "5",
                                           "--consumer-frac", "0.4"]),
            ("-split", "split_file", ["--interests", "300"]))
        for scheme in SCHEMES])
    def test_simulate_row_matches_experiment(self, scheme, topology, knobs,
                                             request, tmp_path, capsys):
        path = request.getfixturevalue(topology)
        common = ["--topology", str(path), *knobs]
        assert main(["simulate", "--scheme", scheme, "--alpha", "1",
                     *common]) == 0
        simulated = capsys.readouterr().out.splitlines()
        out_dir = tmp_path / "out"
        assert main(["experiment", "--schemes", scheme, "--alphas", "1",
                     "--repetitions", "1", "--output-dir", str(out_dir),
                     *common]) == 0
        results = (out_dir / "results.csv").read_text().splitlines()
        assert simulated == results[:2]
        if topology == "split_file":  # the line's consumers reach no origin
            assert int(simulated[1].split(",")[CSV_COLUMNS.index("unsatisfied")]) > 0

    @pytest.mark.parametrize("scheme", [s for s in SCHEMES if s != "no_fog"])
    def test_no_providers_matches_no_fog(self, scheme, line4_file, capsys):
        # an empty fog caches nothing, so every scheme routes like no_fog
        rows = {}
        for name in (scheme, "no_fog"):
            assert main(["simulate", "--scheme", name, "--provider-frac", "0",
                         "--topology", str(line4_file)]) == 0
            rows[name] = capsys.readouterr().out.splitlines()[1].split(",")
        assert rows[scheme][1] == scheme
        assert rows[scheme][2:] == rows["no_fog"][2:]

    @pytest.mark.parametrize("command,flag,name", [
        ("simulate", "--scheme", "cbc"), ("place", "--scheme", "cbc"),
        ("centrality", "--kind", "degree")])
    def test_negative_repetition_rejected(self, command, flag, name,
                                          line4_file, capsys):
        assert main([command, flag, name, "--topology", str(line4_file),
                     "--repetition", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repetition must be >= 0, got -1" in captured.err


    @pytest.mark.parametrize("command,flag,name", [
        ("centrality", "--kind", "degree"), ("centrality", "--kind", "cbc"),
        ("place", "--scheme", "no_fog"), ("place", "--scheme", "cbc")])
    def test_no_consumers_draws_no_interests(self, command, flag, name,
                                             line_file, capsys):
        # centrality and place never read the cell's interests
        assert main([command, flag, name, "--topology", str(line_file),
                     "--consumer-frac", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) > 1
        if command == "centrality":
            assert len(lines) == 21
            if name == "cbc":  # no consumer, no demand
                assert {line.split(",")[2] for line in lines[1:]} == {"0"}

    def test_simulate_without_consumers_needs_no_interests(self, line_file,
                                                          capsys):
        args = ["simulate", "--topology", str(line_file), "--consumer-frac", "0"]
        assert main(args) == 1
        assert "empty consumer set" in capsys.readouterr().err
        assert main([*args, "--interests", "0"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert int(row[CSV_COLUMNS.index("generated")]) == 0

    def test_path_counts_past_float_range_are_runtime_error(self, tmp_path,
                                                           capsys):
        # 1030 diamonds in a row: 2^1030 shortest paths end to end, past the
        # largest float betweenness can divide by
        path = tmp_path / "diamonds.txt"
        path.write_text("".join(f"{h} {h + d}\n{h + d} {h + 3}\n"
                                for h in range(0, 3 * 1030, 3) for d in (1, 2)))
        assert main(["centrality", "--kind", "betweenness",
                     "--topology", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: int too large to convert to float")

    @pytest.mark.parametrize("command,key",
                             [(c, k) for c in ("centrality", "place", "simulate")
                              for k in _CELL_KNOBS] + [("simulate", "interests")])
    def test_empty_knob_is_config_error(self, command, key, line_file, tmp_path,
                                        capsys):
        # not a run on the knob's default
        out = tmp_path / "out.csv"
        assert main([command, "--topology", str(line_file),
                     "--" + key.replace("_", "-"), "", "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config key {key!r}: invalid value ''" in captured.err
        assert not out.exists()

class TestExperimentCommand:
    def test_small_experiment_writes_reports(self, line_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["experiment", "--topology", str(line_file),
                     "--schemes", "cbc,no_fog", "--alphas", "0.5",
                     "--repetitions", "1", "--interests", "50",
                     "--catalog-size", "10", "--output-dir", str(out_dir)]) == 0
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "summary.txt").exists()
        header = (out_dir / "results.csv").read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_config_file_driven(self, line_file, tmp_path):
        config = tmp_path / "plan.cfg"
        config.write_text(
            f"topologies = {line_file.name}\n"
            "schemes = no_fog\nalphas = 0.5\nrepetitions = 1\n"
            "interests = 30\ncatalog_size = 5\n"
            f"output_dir = {tmp_path / 'results'}\n")
        assert main(["experiment", "--config", str(config)]) == 0
        assert (tmp_path / "results" / "results.csv").exists()

    def test_sweep_alpha_uses_single_scheme(self, line_file, tmp_path):
        out_dir = tmp_path / "sweep"
        assert main(["sweep-alpha", "--scheme", "cbc",
                     "--topology", str(line_file), "--alphas", "0.25,0.75",
                     "--repetitions", "1", "--interests", "30",
                     "--catalog-size", "5", "--output-dir", str(out_dir)]) == 0
        text = (out_dir / "results.csv").read_text()
        assert "cbc" in text and "no_fog" not in text

    def test_buffer_larger_than_catalog_clamps(self, line_file, tmp_path):
        # the common class is clamped to the catalog for every scheme
        assert main(["experiment", "--topology", str(line_file),
                     "--buffer-items", "150", "--catalog-size", "100",
                     "--alphas", "1.0", "--repetitions", "1",
                     "--interests", "50",
                     "--output-dir", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert {row.split(",")[1] for row in rows[1:]} == set(SCHEMES)

    def test_no_providers_runs_every_scheme(self, line4_file, tmp_path):
        assert main(["experiment", "--topology", str(line4_file),
                     "--provider-frac", "0", "--repetitions", "1",
                     "--output-dir", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "results.csv").read_text()
        rows = list(csv.DictReader(text.splitlines()))
        assert {row["scheme"] for row in rows} == set(SCHEMES)

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "plan.cfg"
        config.write_text("wat = 1\n")
        assert main(["experiment", "--config", str(config)]) == 1

    def test_duplicates_are_config_errors(self, line_file, tmp_path):
        small = ["experiment", "--schemes", "no_fog", "--repetitions", "1",
                 "--interests", "10", "--output-dir", str(tmp_path / "out")]
        assert main(small + ["--topology", str(line_file),
                             "--alphas", "0.5,0.5"]) == 1
        assert main(small + ["--topology", str(line_file),
                             "--topology", str(line_file)]) == 1
        assert not (tmp_path / "out").exists()

    def test_shared_stems_run_under_distinct_labels(self, line_file, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "t.txt").write_text(line_file.read_text())
        out_dir = tmp_path / "out"
        assert main(["experiment", "--topology", str(tmp_path / "a" / "t.txt"),
                     "--topology", str(tmp_path / "b" / "t.txt"),
                     "--schemes", "no_fog", "--alphas", "0.5", "--repetitions", "1",
                     "--interests", "10", "--gnuplot",
                     "--output-dir", str(out_dir)]) == 0
        rows = (out_dir / "results.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {
            str(tmp_path / "a" / "t.txt"), str(tmp_path / "b" / "t.txt")}

    def labels(self, out_dir):
        rows = (out_dir / "results.csv").read_text().splitlines()[1:]
        return {row.split(",")[0] for row in rows}

    def test_topology_flag_relative_to_working_directory(self, line_file,
                                                         tmp_path, monkeypatch):
        # flag paths resolve against the working directory, a config file's
        # own topologies against the config file's directory
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "own.txt").write_text(line_file.read_text())
        (tmp_path / "sub" / "plan.cfg").write_text(
            "topologies = own.txt\nschemes = no_fog\nalphas = 0.5\n"
            "repetitions = 1\ninterests = 10\n")
        monkeypatch.chdir(tmp_path)
        for flags, label in (([], "own"), (["--topology", "line.txt"], "line")):
            out_dir = tmp_path / f"out-{label}"
            assert main(["experiment", "--config", "sub/plan.cfg", *flags,
                         "--output-dir", str(out_dir)]) == 0
            assert self.labels(out_dir) == {label}

    def test_topology_flag_not_split_on_commas(self, line_file, tmp_path,
                                               monkeypatch):
        (tmp_path / "x,y").mkdir()
        (tmp_path / "x,y" / "t.txt").write_text(line_file.read_text())
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["experiment", "--topology", "x,y/t.txt", "--schemes",
                     "no_fog", "--alphas", "0.5", "--repetitions", "1",
                     "--interests", "10", "--output-dir", str(out_dir)]) == 0
        assert self.labels(out_dir) == {"t"}

    def test_comma_label_quoted(self, line_file, tmp_path, capsys,
                                monkeypatch):
        (tmp_path / "a,b.txt").write_text(line_file.read_text())
        monkeypatch.chdir(tmp_path)
        small = ["--topology", "a,b.txt", "--interests", "10"]
        assert main(["simulate", "--scheme", "no_fog", *small]) == 0
        simulated = capsys.readouterr().out
        assert main(["experiment", "--schemes", "no_fog", "--alphas", "0.5",
                     "--repetitions", "1", "--output-dir", "out", *small]) == 0
        for text in (simulated, (tmp_path / "out" / "results.csv").read_text()):
            rows = list(csv.reader(text.splitlines()))
            assert rows[0] == list(CSV_COLUMNS)
            assert all(len(row) == 12 for row in rows)
            assert {row[0] for row in rows[1:]} == {"a,b"}

    def test_nan_zipf_exponent(self, line_file, tmp_path):
        assert main(["experiment", "--topology", str(line_file),
                     "--zipf-exponent", "nan", "--repetitions", "1",
                     "--interests", "10",
                     "--output-dir", str(tmp_path / "out")]) == 1

    def test_colliding_gnuplot_names(self, line_file, tmp_path, capsys,
                                     monkeypatch):
        # both labels name the files hit_rate_a_b_t.txt.dat and
        # success_rate_a_b_t.txt.dat
        for sub in ("a_b", "a/b"):
            (tmp_path / sub).mkdir(parents=True)
            (tmp_path / sub / "t.txt").write_text(line_file.read_text())
        monkeypatch.chdir(tmp_path)
        plan = ["experiment", "--topology", "a_b/t.txt", "--topology",
                "a/b/t.txt", "--schemes", "no_fog", "--alphas", "0.5",
                "--repetitions", "1", "--interests", "10"]
        assert main(plan + ["--gnuplot", "--output-dir", "dat"]) == 1
        assert "'a_b/t.txt' and 'a/b/t.txt'" in capsys.readouterr().err
        assert not list(tmp_path.glob("dat/*"))
        assert main(plan + ["--output-dir", "plain"]) == 0
        assert self.labels(tmp_path / "plain") == {"a_b/t.txt", "a/b/t.txt"}

    @pytest.mark.parametrize("command", ["experiment", "simulate"])
    def test_empty_topology_flag_is_config_error(self, command, tmp_path,
                                                 capsys, monkeypatch):
        # an empty path would name the working directory: a config error,
        # not a runtime one
        monkeypatch.chdir(tmp_path)
        assert main([command, "--topology", ""]) == 1
        assert "config key 'topologies': empty path" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["experiment", "sweep-alpha"])
    def test_empty_config_flag_is_config_error(self, command, line_file, tmp_path,
                                               capsys, monkeypatch):
        # not a run without a config file
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", "", "--topology", str(line_file),
                     "--repetitions", "1", "--output-dir", "out"]) == 1
        assert "--config: empty path" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_topology_in_config_is_config_error(self, line_file, tmp_path,
                                                      capsys):
        config = tmp_path / "plan.cfg"
        config.write_text(f"topologies = {line_file.name},\nrepetitions = 1\n"
                          f"output_dir = {tmp_path / 'out'}\n")
        assert main(["experiment", "--config", str(config)]) == 1
        assert "config key 'topologies': empty path" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["output_dir", "topologies"])
    def test_empty_path_in_config_is_config_error(self, key, line_file, tmp_path,
                                                  capsys, monkeypatch):
        # an empty path would name the working directory
        monkeypatch.chdir(tmp_path)
        lines = {"topologies": line_file.name, "repetitions": "1",
                 "output_dir": "out", key: ""}
        config = tmp_path / "plan.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        before = set(tmp_path.iterdir())
        assert main(["experiment", "--config", str(config)]) == 1
        assert f"config key {key!r}: empty path" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before

    def test_empty_output_dir_flag_is_config_error(self, line_file, tmp_path,
                                                   capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.iterdir())
        assert main(["experiment", "--topology", str(line_file), "--repetitions",
                     "1", "--interests", "10", "--output-dir", ""]) == 1
        assert "config key 'output_dir': empty path" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before

    def test_unknown_scheme_flag(self, line_file):
        assert main(["experiment", "--topology", str(line_file),
                     "--schemes", "mystery", "--repetitions", "1",
                     "--interests", "10"]) == 1


# per knob: two texts, neither the plan's default, and the second one parsed
KNOB_SAMPLES = {"schemes": ("cbc", "no_fog,cbc", ("no_fog", "cbc")),
                "alphas": ("0.9", "0.3,0.6", (0.3, 0.6)),
                "repetitions": ("2", "3", 3), "interests": ("12", "11", 11),
                "buffer_items": ("3", "4", 4), "catalog_size": ("40", "50", 50),
                "zipf_exponent": ("0.7", "0.8", 0.8),
                "consumer_frac": ("0.1", "0.2", 0.2),
                "provider_frac": ("0.5", "0.4", 0.4),
                "master_seed": ("6", "5", 5), "workers": ("3", "2", 2)}


class TestKnobTable:
    def test_every_knob_sampled(self):
        assert set(KNOB_SAMPLES) == set(KNOBS)

    def planned(self, monkeypatch, tmp_path, argv):
        plans = []

        def captured(plan):
            plans.append(plan)
            return ResultTable(rows=[], aggregates=[])

        monkeypatch.setattr(experiment, "run_experiment", captured)
        assert main(["experiment", *argv,
                     "--output-dir", str(tmp_path / "out")]) == 0
        return plans[0]

    @pytest.mark.parametrize("key", sorted(KNOBS))
    def test_config_key_and_flag_set_one_field(self, key, line_file, tmp_path,
                                               monkeypatch):
        field, _ = KNOBS[key]
        other, text, value = KNOB_SAMPLES[key]
        flag = ["--" + key.replace("_", "-"), text]
        config = tmp_path / "plan.cfg"
        config.write_text(f"topologies = {line_file.name}\n{key} = {text}\n")
        from_config = self.planned(monkeypatch, tmp_path, ["--config", str(config)])
        from_flag = self.planned(monkeypatch, tmp_path,
                                 ["--topology", str(line_file), *flag])
        assert getattr(from_config, field) == value
        assert from_flag == from_config
        config.write_text(f"topologies = {line_file.name}\n{key} = {other}\n")
        overridden = self.planned(monkeypatch, tmp_path,
                                  ["--config", str(config), *flag])
        assert overridden == from_config

    @pytest.mark.parametrize("key", sorted(KNOBS))
    def test_empty_knob_is_config_error(self, key, line_file, tmp_path, capsys,
                                        monkeypatch):
        # from a flag or a config line, not a run on the knob's default
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "plan.cfg"
        config.write_text(f"topologies = {line_file.name}\n{key} =\n")
        before = set(tmp_path.iterdir())
        for argv in (["--config", str(config)],
                     ["--topology", str(line_file), "--" + key.replace("_", "-"), ""]):
            assert main(["experiment", *argv, "--output-dir", "out"]) == 1
            assert f"config key {key!r}: invalid value ''" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before


SUBCOMMANDS = [["topology"], ["topology", "generate"], ["topology", "validate"],
               ["centrality"], ["place"], ["simulate"], ["experiment"],
               ["sweep-alpha"]]


@pytest.mark.parametrize("command", SUBCOMMANDS, ids=" ".join)
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--help"])
    assert exit_info.value.code == 0
    assert "usage: fogcache" in capsys.readouterr().out

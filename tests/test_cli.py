import json
import shutil

import pytest

from motifx.cli import main
from motifx.motifs import code_alphabet

from conftest import ckpt_data, ckpt_values


def run(argv, capsys=None):
    code = main(argv)
    return code


TINY = ["--nodes", "12", "--events", "80", "--seed", "3", "--h", "8",
        "--d-time-base", "4", "--d-time", "4", "--k-nb", "6", "--c", "6",
        "--c-per-node", "5", "--base-epochs", "2", "--expl-epochs", "2",
        "--n-queries", "6", "--per-hop-cap", "6", "--beta", "0.2"]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("run")
    base = ["--run-dir", str(d)] + TINY
    assert main(["synth"] + base) == 0
    assert main(["census"] + base) == 0
    assert main(["train-base"] + base) == 0
    assert main(["train-explainer"] + base) == 0
    assert main(["explain"] + base) == 0
    assert main(["evaluate"] + base) == 0
    return d


class TestPipeline:
    def test_all_artifacts_exist(self, pipeline_dir):
        for name in ("graph.json", "census.json", "null_census.json", "base.ckpt",
                     "explainer.ckpt", "explanations.json", "report.json", "curve.csv"):
            assert (pipeline_dir / name).exists(), name

    def test_run_dir_holds_no_temporary(self, pipeline_dir):
        """Each command leaves its artifacts and manifests, and nothing else."""
        from motifx.cli import FILES
        want = set(FILES.values()) | {f + ".manifest.json" for f in FILES.values()}
        assert {p.name for p in pipeline_dir.iterdir()} == want - {"curve.csv.manifest.json"}

    def test_manifests_written(self, pipeline_dir):
        man = json.loads((pipeline_dir / "graph.json.manifest.json").read_text())
        assert man["command"] == "synth"
        assert man["config"]["events"] == 80
        assert len(man["config_sha256"]) == 64
        assert man["package_version"]

    def test_census_keys_within_alphabet(self, pipeline_dir):
        payload = json.loads((pipeline_dir / "census.json").read_text())
        assert 0 < len(payload["classes"]) <= 12

    def test_report_shape(self, pipeline_dir):
        rep = json.loads((pipeline_dir / "report.json").read_text())
        assert len(rep["levels"]) == 16
        assert 0 <= rep["acc_auc"] <= 100

    def test_curve_csv_header(self, pipeline_dir):
        head = (pipeline_dir / "curve.csv").read_text().splitlines()[0]
        assert head == "query,level,fidelity,acc,source"

    def test_explanations_parse(self, pipeline_dir):
        payload = json.loads((pipeline_dir / "explanations.json").read_text())
        assert isinstance(payload, list) and payload


class TestDeterminism:
    def test_synth_and_census_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            args = ["--run-dir", str(d)] + TINY
            assert main(["synth"] + args) == 0
            assert main(["census"] + args) == 0
        for name in ("graph.json", "graph.json.manifest.json", "census.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_rerun_in_place_byte_identical(self, tmp_path):
        d = tmp_path / "r"
        args = ["--run-dir", str(d)] + TINY
        assert main(["synth"] + args) == 0
        first = (d / "graph.json").read_bytes()
        assert main(["synth"] + args) == 0
        assert (d / "graph.json").read_bytes() == first


class TestErrors:
    def test_missing_dependency_exit_code_and_json(self, tmp_path, capsys):
        code = main(["evaluate", "--run-dir", str(tmp_path / "empty")])
        captured = capsys.readouterr()
        assert code == 2
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DependencyError"
        assert "graph.json" in err["error"]["message"]

    def test_explain_bad_event_id(self, tmp_path, capsys):
        d = tmp_path / "x"
        args = ["--run-dir", str(d)] + TINY
        assert main(["synth"] + args) == 0
        assert main(["train-base"] + args) == 0
        assert main(["train-explainer"] + args) == 0
        code = main(["explain", "--event-id", "99999"] + args)
        assert code == 2

    def test_explain_one_event_id(self, pipeline_dir, tmp_path):
        """`--event-id K` writes exactly the explanation `explain` gives event K under the
        explainer checkpoint's config at the run's seed."""
        from motifx.config import RunConfig
        from motifx.explainer import explain
        from motifx.graph import TemporalGraph
        from motifx.nn import ParameterStore
        d = tmp_path / "e"
        shutil.copytree(pipeline_dir, d)
        k = 79  # the last of TINY's 80 events
        assert main(["explain", "--run-dir", str(d), "--event-id", str(k)] + TINY) == 0
        g = TemporalGraph.from_json((d / "graph.json").read_text())
        base, expl = (ParameterStore.load(d / name) for name in ("base.ckpt", "explainer.ckpt"))
        cfg = RunConfig(**expl.meta["config"])
        want = explain(g, base, expl, g.event(k), cfg, seed=cfg.seed).to_json()
        assert not json.loads(want)["empty"]
        assert (d / "explanations.json").read_text() == f"[{want}]\n"

    @pytest.mark.parametrize("command, name, kind, changed", [
        ("synth", "graph.json", "ConfigError", ["--seed", "4"]),
        ("census", "census.json.manifest.json", "ConfigError", ["--c-per-node", "6"]),
        ("train-base", "base.ckpt", "CheckpointError", ["--base-epochs", "1"]),
        ("train-base", "base.ckpt.manifest.json", "ConfigError", ["--base-epochs", "1"]),
        ("evaluate", "curve.csv", "ConfigError", ["--n-queries", "5"])],
        ids=["synth-graph", "census-manifest", "train-base-checkpoint", "train-base-manifest",
             "evaluate-curve"])
    def test_unwritable_output_is_a_typed_error(self, pipeline_dir, tmp_path, capsys, command,
                                                name, kind, changed):
        """A directory where a command writes an artifact or manifest exits 1 with a typed
        error that names the path. The write is all or nothing: though the flags `changed`
        give the command new output, every file keeps its bytes and no temporary is left."""
        run_dir = tmp_path / "w"
        shutil.copytree(pipeline_dir, run_dir)
        path = run_dir / name
        path.unlink()
        path.mkdir()
        snapshot = lambda: {p.name: p.is_file() and p.read_bytes() for p in run_dir.iterdir()}
        before = snapshot()
        capsys.readouterr()
        code = main([command, "--run-dir", str(run_dir)] + TINY + changed)
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert err["error"]["type"] == kind
        assert str(path) in err["error"]["message"]
        assert snapshot() == before

    def test_ingest_needs_csv(self, tmp_path, capsys):
        assert main(["ingest", "--run-dir", str(tmp_path / "i")]) == 2

    @pytest.mark.parametrize("command, flag, name, data, kind", [
        ("synth", "--config", "missing.json", None, "ConfigError"),
        ("synth", "--config", "latin1.json", b'{"nodes": "\xe9"}', "ConfigError"),
        ("census", None, "graph.json", b'{"node_count": "\xe9"}', "SchemaError"),
        ("ingest", "--csv", "missing.csv", None, "IngestError"),
        ("ingest", "--csv", "latin1.csv", b"a,\xe9,1\n", "IngestError"),
        ("ingest", "--csv", "wide.csv", b"a,b,1\na,b," + b"9" * 200_000 + b"\n", "IngestError"),
        ("train-explainer", None, "null_census.json", "dir", "DependencyError")],
        ids=["config-missing", "config-not-utf8", "graph-not-utf8", "csv-missing",
             "csv-not-utf8", "csv-field-over-the-limit", "null-census-a-directory"])
    def test_unreadable_input_is_a_typed_error(self, pipeline_dir, tmp_path, capsys, command,
                                               flag, name, data, kind):
        """A missing, non-UTF-8 or directory input, or a CSV field over the csv module's
        limit, exits with a typed error that names it: 2 for a DependencyError, else 1."""
        run_dir = tmp_path / "r"
        path = (run_dir if flag is None else tmp_path) / name
        if data == "dir":  # in a run directory that holds every other input
            shutil.copytree(pipeline_dir, run_dir)
            path.unlink()
            path.mkdir()
        elif data is not None:
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(data)
        capsys.readouterr()
        code = main([command, "--run-dir", str(run_dir)] + ([flag, str(path)] if flag else []))
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == (2 if kind == "DependencyError" else 1)
        assert err["error"]["type"] == kind
        assert str(path) in err["error"]["message"]

    @pytest.mark.parametrize("command, name, kind", [
        ("synth", "cfg.json", "ConfigError"), ("census", "graph.json", "SchemaError"),
        ("train-explainer", "base.ckpt", "CheckpointError"),
        ("train-explainer", "null_census.json", "DependencyError")],
        ids=["config", "graph", "checkpoint", "null-census"])
    def test_deeply_nested_json_is_a_typed_error(self, pipeline_dir, tmp_path, capsys, command,
                                                 name, kind):
        """JSON nested too deep to decode exits with a typed error as JSON on stderr: 2 for a
        DependencyError, else 1."""
        run_dir = tmp_path / "r"
        shutil.copytree(pipeline_dir, run_dir)
        (run_dir / name).write_text("[" * 200_000 + "]" * 200_000)
        config = ["--config", str(run_dir / name)] if name == "cfg.json" else []
        capsys.readouterr()
        code = main([command, "--run-dir", str(run_dir)] + config + TINY)
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == (2 if kind == "DependencyError" else 1)
        assert err["error"]["type"] == kind

    @pytest.mark.parametrize("text", ["not a checkpoint", '{"format": "motifx-ckpt/1"}'])
    def test_bad_checkpoint_is_a_json_error(self, tmp_path, capsys, text):
        d = tmp_path / "c"
        assert main(["synth", "--run-dir", str(d)] + TINY) == 0
        (d / "base.ckpt").write_text(text)
        capsys.readouterr()
        code = main(["train-explainer", "--run-dir", str(d)] + TINY)
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert err["error"]["type"] == "CheckpointError"

    @staticmethod
    def drop_array(name):
        return lambda payload: payload["arrays"].pop(name)

    @staticmethod
    def drop_meta(key):
        return lambda payload: payload["meta"].pop(key)

    @staticmethod
    def transpose(name):
        def mutate(payload):
            spec = payload["arrays"][name]
            spec["data"] = ckpt_data(ckpt_values(spec["data"]).reshape(spec["shape"]).T)
            spec["shape"] = spec["shape"][::-1]
        return mutate

    @staticmethod
    def set_kind(kind):
        return lambda payload: payload["meta"].update(kind=kind)

    @staticmethod
    def add_config(**fields):
        return lambda payload: payload["meta"]["config"].update(fields)

    @pytest.mark.parametrize("command, ckpt, mutation, needle", [
        ("train-explainer", "base.ckpt", drop_array("head1.w"), "'head1.w'"),
        ("train-explainer", "base.ckpt", drop_meta("h"), "meta 'h'"),
        ("train-explainer", "base.ckpt", transpose("head1.w"), "'head1.w' has shape (8, 16)"),
        ("train-explainer", "base.ckpt", set_kind("explainer"), "'explainer' checkpoint"),
        ("train-explainer", "base.ckpt", drop_meta("config"), "'config'"),
        ("explain", "explainer.ckpt", drop_array("score1.w"), "'score1.w'"),
        ("evaluate", "explainer.ckpt", transpose("score1.w"), "'score1.w' has shape"),
        ("evaluate", "explainer.ckpt", set_kind("head"), "'head' checkpoint"),
        ("explain", "base.ckpt", drop_meta("attr_width"), "meta 'attr_width'"),
        # a config as builds that still had the `hops` and `gine_depth` fields wrote it
        ("explain", "base.ckpt", add_config(hops=1, gine_depth=1), "'hops'"),
        ("evaluate", "explainer.ckpt", add_config(hops=1, gine_depth=1), "'hops'"),
        # and as builds that still had the `lam` field wrote it
        ("explain", "base.ckpt", add_config(lam=0.5), "'lam'"),
        ("evaluate", "explainer.ckpt", add_config(lam=0.5), "'lam'"),
        # and as builds that still had the `prior` field wrote it
        ("explain", "base.ckpt", add_config(prior="empirical"), "'prior'"),
        ("evaluate", "explainer.ckpt", add_config(prior="empirical"), "'prior'"),
    ], ids=["base-array", "base-meta", "base-transposed", "base-kind", "base-config",
            "explainer-array", "explainer-transposed", "explainer-kind", "base-attr-width",
            "base-removed-fields", "explainer-removed-fields", "base-lam", "explainer-lam",
            "base-prior", "explainer-prior"])
    def test_checkpoint_its_config_does_not_build_rejected(self, pipeline_dir, tmp_path, capsys,
                                                            command, ckpt, mutation, needle):
        d = tmp_path / "m"
        shutil.copytree(pipeline_dir, d)
        payload = json.loads((d / ckpt).read_text())
        mutation(payload)
        (d / ckpt).write_text(json.dumps(payload))
        capsys.readouterr()
        code = main([command, "--run-dir", str(d)] + TINY)
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert err["error"]["type"] == "CheckpointError"
        assert needle in err["error"]["message"]

    @pytest.mark.parametrize("field", ["n", "l"])
    def test_motif_size_other_than_the_explainer_rejected(self, pipeline_dir, capsys, field):
        for command in ("explain", "evaluate"):
            capsys.readouterr()
            code = main([command, "--run-dir", str(pipeline_dir), f"--{field}", "4"] + TINY)
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert code == 1
            assert err["error"]["type"] == "ConfigError"
            assert f"{field}=4 differs from the explainer checkpoint's {field}=3" in \
                err["error"]["message"]

    @pytest.mark.parametrize("field, value, trained", [
        ("c", "7", "6"), ("delta", "5.0", "None"), ("per_hop_cap", "7", "6")],
        ids=["c", "delta", "per_hop_cap"])
    def test_sampling_field_other_than_the_explainer_rejected(self, pipeline_dir, capsys, field,
                                                              value, trained):
        for command in ("explain", "evaluate"):
            capsys.readouterr()
            flag = "--" + field.replace("_", "-")
            code = main([command, "--run-dir", str(pipeline_dir)] + TINY + [flag, value])
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert code == 1
            assert err["error"]["type"] == "ConfigError"
            assert f"{field}={value} differs from the explainer checkpoint's {field}={trained}" \
                in err["error"]["message"]

    def test_sampling_field_in_the_config_file_rejected(self, pipeline_dir, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"per_hop_cap": 7}))
        capsys.readouterr()
        code = main(["explain", "--run-dir", str(pipeline_dir), "--config", str(cfg_file)])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert "per_hop_cap=7 differs from the explainer checkpoint's per_hop_cap=6" in \
            err["error"]["message"]

    def test_sampling_fields_not_given_come_from_the_explainer(self, pipeline_dir, tmp_path):
        """Without --c and --per-hop-cap, explain samples with the explainer's 6 and 6, not
        the defaults 40 and 20."""
        d = tmp_path / "s"
        shutil.copytree(pipeline_dir, d)
        (d / "explanations.json").unlink()
        rest = [x for flag, value in zip(TINY[::2], TINY[1::2])
                if flag not in ("--c", "--per-hop-cap") for x in (flag, value)]
        assert main(["explain", "--run-dir", str(d)] + rest) == 0
        assert (d / "explanations.json").read_bytes() == \
            (pipeline_dir / "explanations.json").read_bytes()
        manifest = json.loads((d / "explanations.json.manifest.json").read_text())
        assert (manifest["config"]["c"], manifest["config"]["per_hop_cap"]) == (6, 6)

    def test_run_dir_that_is_a_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "f"
        path.write_text("kept")
        code = main(["synth", "--run-dir", str(path)])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert err["error"]["type"] == "ConfigError"
        assert f"--run-dir {path} is not a directory" in err["error"]["message"]
        assert path.read_text() == "kept"

    def test_k_nb_zero_rejected(self, tmp_path, capsys):
        code = main(["train-base", "--run-dir", str(tmp_path / "k"), "--k-nb", "0"])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert err["error"]["type"] == "ConfigError"
        assert "k_nb=0" in err["error"]["message"]

    @staticmethod
    def alphabet(value, l=3):
        return json.dumps({code: value for code in code_alphabet(3, l)})

    @pytest.mark.parametrize("text, needle", [
        (alphabet("0.1"), "probability '0.1'"), (alphabet(-0.1), "probability -0.1"),
        (alphabet(1e300), "probability 1e+300"), ("{not json", "not JSON"),
        (alphabet(0.2, l=2), "not those of n=3, l=3")],
        ids=["string", "negative", "huge", "not-json", "other-l"])
    def test_bad_null_census_rejected(self, pipeline_dir, tmp_path, capsys, text, needle):
        d = tmp_path / "nc"
        shutil.copytree(pipeline_dir, d)
        (d / "null_census.json").write_text(text)
        capsys.readouterr()
        code = main(["train-explainer", "--run-dir", str(d)] + TINY)
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 2
        assert err["error"]["type"] == "DependencyError"
        for part in (str(d / "null_census.json"), "motifx null-census", needle):
            assert part in err["error"]["message"]


    @pytest.mark.parametrize("command, flag, value", [
        ("train-explainer", "--batch", "-1"), ("explain", "--batch", "-1"),
        ("evaluate", "--batch", "-1"), ("train-base", "--h", "0"),
        ("train-explainer", "--h", "0"), ("train-base", "--d-time-base", "0"),
        ("train-explainer", "--d-time", "0"), ("train-explainer", "--d-time-base", "0"),
        ("train-explainer", "--p", "0"), ("train-explainer", "--p", "1"),
        ("explain", "--n-queries", "-2"), ("evaluate", "--n-queries", "-2"),
        ("train-base", "--lr", "nan"), ("train-explainer", "--lr", "0"),
        ("census", "--n", "1"), ("census", "--l", "0"), ("train-explainer", "--c", "0"),
        ("census", "--c-per-node", "0"), ("train-explainer", "--per-hop-cap", "0"),
        ("synth", "--events", "0"), ("train-explainer", "--max-train-queries", "0"),
        ("synth", "--nodes", "2"), ("train-base", "--base-epochs", "-1"),
        ("train-explainer", "--expl-epochs", "-1"), ("train-base", "--patience", "-1"),
        ("census", "--delta", "-5"), ("train-explainer", "--beta", "-0.5"),
        ("synth", "--seed", "-1"), ("grad-check", "--points", "0"),
        ("grad-check", "--points", "-1")])
    def test_out_of_range_value_rejected(self, tmp_path, capsys, command, flag, value):
        run_dir = [] if command == "grad-check" else ["--run-dir", str(tmp_path / "r")]
        code = main([command, *run_dir, flag, value])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert err["error"]["type"] == "ConfigError"
        assert f"{flag[2:].replace('-', '_')}={value}" in err["error"]["message"]


class TestConfig:
    def test_every_flag_parses_to_its_annotated_type(self):
        import dataclasses
        from motifx.cli import build_parser
        from motifx.config import RunConfig
        samples = {"int": "7", "float": "0.25", "str": "abc", "bool": None}
        types = {"int": int, "float": float, "str": str, "bool": bool}
        for f in dataclasses.fields(RunConfig):
            kind = f.type.split(" | ")[0]
            argv = ["synth", "--run-dir", "x", "--" + f.name.replace("_", "-")]
            parsed = build_parser().parse_args(argv + [samples[kind]] * (kind != "bool"))
            assert type(getattr(parsed, f.name)) is types[kind], f.name

    def test_file_and_flag_precedence(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"events": 50, "nodes": 10, "seed": 1}))
        d = tmp_path / "p"
        assert main(["synth", "--run-dir", str(d), "--config", str(cfg_file),
                     "--events", "60"]) == 0
        man = json.loads((d / "graph.json.manifest.json").read_text())
        assert man["config"]["events"] == 60   # flag wins
        assert man["config"]["nodes"] == 10    # file beats default

    @staticmethod
    def config_error(tmp_path, capsys, text) -> str:
        """Run synth with `text` as the config file; assert a ConfigError exit, return its message."""
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(text)
        capsys.readouterr()
        code = main(["synth", "--run-dir", str(tmp_path / "q"), "--config", str(cfg_file)])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 1
        assert err["error"]["type"] == "ConfigError"
        assert not (tmp_path / "q" / "graph.json").exists()
        return err["error"]["message"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        assert "not_a_key" in self.config_error(tmp_path, capsys, json.dumps({"not_a_key": 5}))

    @pytest.mark.parametrize("key, value", [("hops", 1), ("gine_depth", 1), ("lam", 0.5),
                                            ("prior", "empirical")],
                             ids=["hops", "gine_depth", "lam", "prior"])
    def test_removed_field_in_the_config_file_rejected(self, tmp_path, capsys, key, value):
        message = self.config_error(tmp_path, capsys, json.dumps({key: value}))
        assert f"unknown config keys: ['{key}']" in message

    @pytest.mark.parametrize("command, flag", [
        ("train-explainer", ["--hops", "2"]), ("train-explainer", ["--gine-depth", "2"]),
        ("train-explainer", ["--lam", "0.5"]), ("evaluate", ["--emit-plot-data"]),
        ("train-explainer", ["--prior", "uniform"])],
        ids=["--hops", "--gine-depth", "--lam", "--emit-plot-data", "--prior"])
    def test_removed_flag_is_an_unknown_argument(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--run-dir", str(tmp_path / "r"), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_config_file_not_json(self, tmp_path, capsys):
        assert "not JSON" in self.config_error(tmp_path, capsys, "nodes = 10")

    def test_config_file_not_an_object(self, tmp_path, capsys):
        assert "JSON object" in self.config_error(tmp_path, capsys, "[1, 2]")

    @pytest.mark.parametrize("key, value", [("c", "forty"), ("nodes", True), ("seed", None),
                                            ("beta", "0.5"), ("c", 40.0), ("has_header", 1)])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, key, value):
        assert key in self.config_error(tmp_path, capsys, json.dumps({key: value}))

    def test_config_null_and_int_where_allowed(self, tmp_path, capsys):
        cfg_file = tmp_path / "ok.json"
        cfg_file.write_text(json.dumps({"delta": None, "max_train_queries": None, "beta": 1,
                                        "nodes": 10, "events": 30}))
        assert main(["synth", "--run-dir", str(tmp_path / "ok"), "--config", str(cfg_file)]) == 0
        assert main(["synth", "--run-dir", str(tmp_path / "flags"), "--beta", "1",
                     "--nodes", "10", "--events", "30"]) == 0
        from_file, from_flags = (json.loads((tmp_path / d / "graph.json.manifest.json").read_text())
                                 for d in ("ok", "flags"))
        assert from_file["config"]["beta"] == 1.0
        assert from_file["config_sha256"] == from_flags["config_sha256"]

    def test_unknown_rule_rejected(self, tmp_path, capsys):
        """census never reads the rule, yet an unknown one is refused before it runs."""
        d = tmp_path / "r"
        assert main(["synth", "--run-dir", str(d), "--nodes", "10", "--events", "30"]) == 0
        capsys.readouterr()
        assert main(["census", "--run-dir", str(d), "--rule", "nope"]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "ConfigError"
        assert "rule='nope'" in err["error"]["message"]
        assert not (d / "census.json").exists()

    def test_out_of_range_warning(self, tmp_path, capsys):
        d = tmp_path / "w"
        assert main(["synth", "--run-dir", str(d), "--nodes", "10",
                     "--events", "30", "--c", "500"]) == 0
        captured = capsys.readouterr()
        assert "outside the explored range" in captured.err
        man = json.loads((d / "graph.json.manifest.json").read_text())
        assert man["warnings"]

    def test_ingest_csv_flow(self, tmp_path):
        csv = tmp_path / "events.csv"
        csv.write_text("a,b,1\nb,c,2\nc,a,3\na,a,4\n")
        d = tmp_path / "ing"
        assert main(["ingest", "--run-dir", str(d), "--csv", str(csv)]) == 0
        payload = json.loads((d / "graph.json").read_text())
        assert payload["node_count"] == 3
        assert len(payload["events"]) == 3

    def test_empty_csv_runs_every_command(self, tmp_path):
        """A zero-event graph has empty splits, so every command after ingest exits 0."""
        csv = tmp_path / "empty.csv"
        csv.write_text("")
        args = ["--run-dir", str(tmp_path / "e")] + TINY
        assert main(["ingest", "--csv", str(csv)] + args) == 0
        for command in ("census", "null-census", "train-base", "train-explainer", "explain",
                        "evaluate"):
            assert main([command] + args) == 0, command


def test_grad_check_command(capsys):
    assert main(["grad-check", "--points", "1"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"time_encoder", "gine_layer", "concrete_sample",
                        "motif_encoder", "importance_scorer", "full_objective",
                        "base_forward"}
    assert all(v < 1e-4 for v in out.values())


def test_grad_check_takes_no_run_dir(capsys):
    from motifx.cli import build_parser
    with pytest.raises(SystemExit):
        build_parser().parse_args(["grad-check", "--run-dir", "run"])
    assert "unrecognized arguments: --run-dir" in capsys.readouterr().err


def test_grad_check_passes_where_a_larger_step_crosses_relu_kinks():
    # at a finite-difference step of 1e-5 seed 4 fails motif_encoder (1.7e-2)
    assert main(["grad-check", "--seed", "4", "--points", "3"]) == 0


class TestEvaluateVariants:
    def test_no_query_gives_an_empty_report(self, pipeline_dir, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(pipeline_dir, run_dir)
        args = ["--run-dir", str(run_dir)] + TINY + ["--n-queries", "0"]
        assert main(["evaluate"] + args) == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["n_queries"] == 0
        assert report["mean_fidelity_per_level"] == report["baseline_fidelity_per_level"] == {}

    def test_run_dir_with_a_space(self, pipeline_dir, tmp_path):
        spaced = tmp_path / "run dir"
        shutil.copytree(pipeline_dir, spaced)
        (spaced / "report.json").unlink()
        assert main(["evaluate", "--run-dir", str(spaced)] + TINY) == 0
        assert (spaced / "report.json").read_bytes() == (pipeline_dir / "report.json").read_bytes()

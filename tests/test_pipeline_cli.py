import json
import os
import subprocess
import sys

import pytest

import spencerkit
from spencerkit import __version__
from spencerkit.cache import (cache_list, cache_lookup, cache_remove,
                              cache_store, canonical_json, config_hash)
from spencerkit import cli as cli_module
from spencerkit.cli import main
from spencerkit.errors import ConfigError
from spencerkit.pipeline import (STAGES, report_bytes, run_pipeline,
                                 validate_config)


def base_config(**overrides):
    config = {
        "signature": {"s": 2, "t": 1},
        "N": 1,
        "dirac_current": {"kind": "standard"},
        "subalgebra": {"S_prime": "full", "h": "full", "r_prime": "full"},
        "cocycle": "zero",
        "seed": 0,
    }
    config.update(overrides)
    return config


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(base_config(bogus=1))

    def test_missing_keys_rejected(self):
        config = base_config()
        del config["cocycle"]
        with pytest.raises(ConfigError):
            validate_config(config)

    def test_checks_must_be_prefix(self):
        with pytest.raises(ConfigError):
            validate_config(base_config(checks=["flat_model", "clifford"]))
        ok = validate_config(base_config(checks=list(STAGES[:3])))
        assert ok["checks"] == list(STAGES[:3])

    def test_seed_required_for_random(self):
        config = base_config()
        config["subalgebra"] = {"S_prime": {"random": {"dim": 2, "seed": 3}},
                                "h": "stabiliser", "r_prime": "zero"}
        del config["seed"]
        with pytest.raises(ConfigError):
            validate_config(config)

    def test_bad_signature(self):
        with pytest.raises(ConfigError):
            validate_config(base_config(signature={"s": 2}))

    def test_empty_signature_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(base_config(signature={"s": 0, "t": 0}))


class TestPipeline:
    def test_zero_end_to_end(self):
        report = run_pipeline(base_config())
        assert report["result"] == "pass"
        names = [s["name"] for s in report["stages"]]
        assert names == list(STAGES)
        cohomology = next(s["data"] for s in report["stages"]
                          if s["name"] == "cohomology")
        assert cohomology["H21"]["dimH"] == 0
        assert cohomology["normalisation_oracle_equal"]
        recon = report["stages"][-1]["data"]
        assert recon["F0_zero"]
        assert all(all(v == "0" for v in col)
                   for row in recon["R0"] for col in row)

    def test_full_model_h22_block_omits_representatives(self):
        report = run_pipeline(base_config())
        block = next(s["data"] for s in report["stages"]
                     if s["name"] == "cohomology")["full_model_H22"]
        assert list(block) == ["bidegree", "dimZ", "dimB", "dimH",
                               "representatives"]
        assert block["bidegree"] == [2, 2]
        assert block["dimZ"] - block["dimB"] == block["dimH"]
        assert block["representatives"] == "omitted"

    def test_determinism_across_runs(self):
        a = report_bytes(run_pipeline(base_config()))
        b = report_bytes(run_pipeline(base_config()))
        assert a == b

    def test_negative_short_circuits(self):
        # full r does not preserve a generic random S' when r is nonzero
        config = base_config(signature={"s": 2, "t": 1}, N=2, seed=5)
        config["subalgebra"] = {"S_prime": {"random": {"dim": 3, "seed": 5}},
                                "h": "stabiliser", "r_prime": "full"}
        report = run_pipeline(config)
        assert report["result"] == "negative"
        names = [s["name"] for s in report["stages"]]
        assert names[-1] == "subalgebra"
        assert "cohomology" not in names  # stage isolation

    def test_random_subalgebra_homogeneity_recorded(self):
        config = base_config(signature={"s": 3, "t": 1}, seed=7)
        config["subalgebra"] = {"S_prime": {"random": {"dim": 3, "seed": 7}},
                                "h": "stabiliser", "r_prime": "zero"}
        report = run_pipeline(config)
        sub_stage = next(s for s in report["stages"]
                         if s["name"] == "subalgebra")
        assert sub_stage["data"]["homogeneity_rank"] == 4

    def test_basis_element_out_of_range(self):
        config = base_config(cocycle={"basis_element": 99})
        with pytest.raises(ConfigError):
            run_pipeline(config)

    def test_explicit_non_cocycle_rejected(self):
        coeffs = ["0"] * 30
        coeffs[9] = "1"  # a lone beta unit is not a cocycle here
        config = base_config(cocycle={"coefficients": coeffs})
        with pytest.raises(ConfigError):
            run_pipeline(config)

    def test_prefix_run(self):
        config = base_config(checks=list(STAGES[:6]))
        report = run_pipeline(config)
        assert report["result"] == "pass"
        assert len(report["stages"]) == 6

    def test_consolidated_deformation_report_shape(self):
        report = run_pipeline(base_config())
        stage = next(s for s in report["stages"]
                     if s["name"] == "realisability")
        blob = stage["data"]["deformation_report"]
        assert set(blob) == {"admissible", "integrable", "realisable",
                             "dims", "theta_tilde_2_zero", "certificates",
                             "witness"}
        assert blob["admissible"] and blob["integrable"] and \
            blob["realisable"]
        assert blob["theta_tilde_2_zero"] is True


def sampled_config(s, t, N, dim, seed, h="stabiliser", cocycle="zero"):
    """A config with a random S' of dimension `dim` and r' = 0."""
    return base_config(
        signature={"s": s, "t": t}, N=N, seed=seed, cocycle=cocycle,
        subalgebra={"S_prime": {"random": {"dim": dim, "seed": seed}},
                    "h": h, "r_prime": "zero"})


# the example config of the project README, without its output path
README_EXAMPLE = sampled_config(3, 1, 1, 3, 7, cocycle={"basis_element": 0})


def _counting(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


class TestBuildOnce:
    def test_one_complex_build_per_key(self, monkeypatch):
        from spencerkit import spencer
        built = []
        build = spencer.build_spencer_complex

        def counting(subalgebra, degree, values="subalgebra"):
            built.append((subalgebra.Vp, subalgebra.Sp, subalgebra.h,
                          subalgebra.rp, degree, values))
            return build(subalgebra, degree, values)

        monkeypatch.setattr(spencer, "build_spencer_complex", counting)
        report = run_pipeline(base_config())
        assert [s["name"] for s in report["stages"]] == list(STAGES)
        # the maximal subalgebra's degree-2 complex (shared with the full
        # model, and its own model-valued complex) and its degree-4 complex
        assert len(built) == len(set(built)) == 2

    def test_subalgebra_structure_built_once(self, monkeypatch):
        from spencerkit import deform, flatmodel, pipeline
        made, restricted = [], []
        make = flatmodel.make_graded_subalgebra
        restrict = flatmodel.kappa_restriction_matrix

        def counting_make(*args):
            made.append(make(*args))
            return made[-1]

        def counting_restrict(*args):
            restricted.append(args)
            return restrict(*args)

        for module in (flatmodel, deform, pipeline):
            monkeypatch.setattr(module, "make_graded_subalgebra",
                                counting_make)
        monkeypatch.setattr(flatmodel, "kappa_restriction_matrix",
                            counting_restrict)
        report = run_pipeline(base_config())
        assert report["result"] == "pass"
        # kappa on Sym^2 S' once per subalgebra, and the maximal one, asked
        # for by the subalgebra stage and by the full model's cohomology, is
        # built once; the kappa(s_i, .) block of the degree-2 differential is
        # built from products, not pointwise
        assert len(made) > len(restricted) == len(set(map(id, made))) == 1

    def test_full_model_h22_is_the_maximal_subalgebra_report(
            self, monkeypatch):
        from spencerkit import pipeline
        calls = []
        compute = pipeline.compute_cohomology

        def counting(cx, p):
            calls.append((id(cx), p))
            return compute(cx, p)

        monkeypatch.setattr(pipeline, "compute_cohomology", counting)
        run_pipeline(base_config(checks=list(STAGES[:6])))
        # H21 and H22 of the shared degree-2 complex, H42 of degree 4
        assert len(calls) == len(set(calls)) == 3

    def test_one_kernel_over_c22_per_complex(self, monkeypatch):
        # Z^{2,2} of a maximal subalgebra's complex serves H22, the full
        # model's H22 and the normalised space
        from instances import get_full_subalgebra
        from spencerkit.exactla import ExactMatrix
        from spencerkit.spencer import spencer_complex
        dim_c22 = spencer_complex(get_full_subalgebra(3, 1, 2),
                                  2).layouts[2].dim
        widths = []
        kernel = ExactMatrix.kernel

        def recording(self):
            widths.append(self.cols)
            return kernel(self)

        monkeypatch.setattr(ExactMatrix, "kernel", recording)
        config = base_config(signature={"s": 3, "t": 1}, N=2,
                             checks=list(STAGES[:6]))
        report = run_pipeline(config)
        assert report["result"] == "pass"
        assert widths.count(dim_c22) == 1

    def test_complexes_freed_without_the_cycle_collector(self, monkeypatch):
        # a complex refers to its model and to its kept cohomology reports,
        # and they to it; a run drops every complex but the full model's
        # degree-2 one, which the slot keeps until a run on another
        # signature empties it, so reference counting frees them all
        import gc
        import weakref
        from spencerkit import pipeline, spencer
        refs = []
        build = spencer.build_spencer_complex

        def recording(*args):
            cx = build(*args)
            refs.append(weakref.ref(cx))
            return cx

        monkeypatch.setattr(spencer, "build_spencer_complex", recording)
        gc.disable()
        try:
            report = run_pipeline(sampled_config(2, 1, 1, 2, 1))
            assert report["result"] == "pass" and len(refs) > 1
            kept = pipeline._KEPT["fullco"].complex
            assert [ref() for ref in refs if ref() is not None] == [kept]
            model = weakref.ref(kept.model)
            del kept
            first = list(refs)
            run_pipeline(base_config(N=2, checks=list(STAGES[:4])))
            assert all(ref() is None for ref in first)
            assert model() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("s,t,N", [(2, 1, 1), (2, 1, 2)])
    def test_schur_and_r_symmetry_built_once_per_run(self, monkeypatch,
                                                     s, t, N):
        from spencerkit import flatmodel, pipeline
        calls = {"compute_schur_algebra": 0, "compute_r_symmetry_algebra": 0}

        def counting(name):
            fn = getattr(flatmodel, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            wrapper = counting(name)
            for module in (flatmodel, pipeline):
                monkeypatch.setattr(module, name, wrapper)
        report = run_pipeline(base_config(signature={"s": s, "t": t}, N=N))
        assert [stage["name"] for stage in report["stages"]] == list(STAGES)
        # the r_symmetry stage derives both; the flat model checks its r
        # by the defining equations
        assert calls == {name: 1 for name in calls}

    def test_deformation_built_once_per_run(self, monkeypatch):
        from spencerkit import deform, pipeline
        calls = []
        build = deform.build_filtered_deformation

        def counting(datum):
            calls.append(datum)
            return build(datum)

        for module in (deform, pipeline):
            monkeypatch.setattr(module, "build_filtered_deformation",
                                counting)
        report = run_pipeline(base_config())
        assert report["result"] == "pass"
        # the datum is its own realisability witness
        assert len(calls) == 1

    def test_delta_solved_once_per_datum(self, monkeypatch):
        from spencerkit import deform
        data = []
        certify = deform._certify_delta

        def counting(datum, chi):
            data.append(datum)
            return certify(datum, chi)

        monkeypatch.setattr(deform, "_certify_delta", counting)
        report = run_pipeline(base_config())
        assert report["result"] == "pass"
        # the admissible datum, which is also the realisability witness
        assert len(data) == 1

    def test_one_derivation_per_run(self, monkeypatch):
        from spencerkit import deform
        calls = {"_compute_theta": 0, "_check_integrability": 0,
                 "graded_jacobi_check": 0}

        def counting(name):
            fn = getattr(deform, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(deform, name, counting(name))
        report = run_pipeline(base_config())
        assert report["result"] == "pass"
        # theta, the integrability report and the Jacobi check of the
        # deformed bracket, each once for the datum and its witness
        assert calls == {name: 1 for name in calls}


class TestKeptModel:
    """The signature-level objects kept in one slot between runs."""

    @staticmethod
    def _count_builders(monkeypatch):
        from spencerkit import pipeline
        counts = {name: 0 for name in (
            "build_dirac_current", "compute_schur_algebra",
            "compute_r_symmetry_algebra", "build_extended_flat_model",
            "FullModelCohomology")}
        for name in counts:
            _counting(monkeypatch, pipeline, name, counts)
        return counts

    def test_warm_run_builds_no_signature_object(self, monkeypatch):
        from spencerkit import pipeline, spencer
        counts = self._count_builders(monkeypatch)
        run_pipeline(base_config())
        assert counts == {name: 1 for name in counts}
        # the data kept per subalgebra went at the end of the run
        fullco = pipeline._KEPT["fullco"]
        assert not fullco.restriction_kernels and not fullco._invariant
        complexes = {"build_spencer_complex": 0}
        _counting(monkeypatch, spencer, "build_spencer_complex", complexes)
        config = base_config(seed=3, cocycle={"basis_element": 0})
        warm = report_bytes(run_pipeline(config))
        assert counts == {name: 1 for name in counts}
        # the kept degree-2 complex serves the maximal subalgebra again;
        # only its degree-4 complex is built
        assert complexes == {"build_spencer_complex": 1}
        pipeline.clear_kept_model()
        assert report_bytes(run_pipeline(config)) == warm
        assert counts == {name: 2 for name in counts}

    def test_interleaved_runs_give_cold_bytes(self):
        # signatures change and repeat, with a negative and an internal
        # failure between them, and a maximal run follows a sampled one on
        # its signature; every report matches a cold run of its config
        from spencerkit.errors import StageError
        from spencerkit.pipeline import clear_kept_model
        sequence = [
            README_EXAMPLE,
            base_config(),
            README_EXAMPLE,
            sampled_config(2, 1, 2, 3, 3, h="full"),
            sampled_config(2, 1, 1, 1, 5),
            sampled_config(3, 1, 1, 3, 11, cocycle={"basis_element": 1}),
            base_config(signature={"s": 3, "t": 1}),
            README_EXAMPLE,
        ]

        def outcome(config):
            try:
                return report_bytes(run_pipeline(config))
            except StageError as err:
                return str(err)

        warm = [outcome(config) for config in sequence]
        cold = []
        for config in sequence:
            clear_kept_model()
            cold.append(outcome(config))
        assert warm == cold
        assert warm[0] == warm[2] == warm[-1]
        assert [json.loads(blob)["result"] for blob in
                warm[:4] + warm[5:]] == ["pass"] * 3 + ["negative"] + \
            ["pass"] * 3
        assert warm[4] == ("stage 'admissibility': admissibility requires "
                           "a highly supersymmetric subalgebra")


class TestCache:
    def test_roundtrip(self):
        key = config_hash(base_config())
        blob = b'{"x": 1}\n'
        assert cache_lookup(key) is None
        cache_store(key, blob)
        assert cache_lookup(key) == blob
        assert key in cache_list()
        assert cache_remove(key) == 2
        assert cache_lookup(key) is None

    def test_corrupt_entry_is_miss(self, capsys):
        key = config_hash(base_config(seed=123))
        cache_store(key, b"payload")
        path = os.path.join(os.environ["SPENCERKIT_CACHE_DIR"],
                            key + ".json")
        with open(path, "wb") as fh:
            fh.write(b"tampered")
        assert cache_lookup(key) is None
        assert "corrupt" in capsys.readouterr().err

    def test_rm_takes_only_a_config_hash(self, capsys):
        # a key names a file inside the cache directory: "../victim" is a
        # config error that deletes nothing, and a real key is still removed
        base = os.environ["SPENCERKIT_CACHE_DIR"]
        os.makedirs(base, exist_ok=True)
        victim = os.path.join(base, os.pardir, "victim.json")
        with open(victim, "wb") as fh:
            fh.write(b"keep")
        key = config_hash(base_config())
        cache_store(key, b"payload")
        for bad in ("../victim", key.upper(), key[:-1], key + "0", ""):
            assert main(["cache", "rm", bad]) == 2
            assert "not a cache key" in capsys.readouterr().err
        with open(victim, "rb") as fh:
            assert fh.read() == b"keep"
        assert cache_lookup(key) == b"payload"
        assert main(["cache", "rm", key]) == 0
        assert cache_lookup(key) is None and cache_list() == []

    def test_version_in_key_preimage(self):
        config = base_config()
        key = config_hash(config)
        preimage_differs = canonical_json(config) + "\x00" + __version__
        assert key != config_hash(base_config(seed=1))
        # the same canonical config with a different engine version would
        # produce a different key: simulate by comparing raw preimages
        import hashlib
        other = hashlib.sha256(
            ("\x00".join([canonical_json(config), "other-version", "1"]))
            .encode()).hexdigest()
        assert other != key


class TestCli:
    def _write(self, tmp_path, config, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(config))
        return str(path)

    @staticmethod
    def _run_child(path):
        """`spencerkit run path` in a child process with a timeout, so a
        hang fails the test instead of stalling the suite."""
        src = os.path.dirname(os.path.dirname(spencerkit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-m", "spencerkit.cli", "run", path],
            env=env, capture_output=True, text=True, timeout=120)

    def test_run_exit_codes_and_cache_identity(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        config = base_config(output_path=str(out))
        path = self._write(tmp_path, config)
        assert main(["run", path]) == 0
        first = out.read_bytes()
        assert main(["run", path]) == 0  # cache hit
        assert out.read_bytes() == first
        assert main(["run", path, "--no-cache"]) == 0
        assert out.read_bytes() == first

    def test_config_error_exit_2(self, tmp_path):
        path = self._write(tmp_path, base_config(bogus=True))
        assert main(["run", path]) == 2
        assert main(["run", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("top", [[], "config", ["config"], 3, None])
    def test_cohomology_on_a_non_object_config_exit_2(self, tmp_path, capsys,
                                                      top):
        # the subcommand sets the config's checks before validating it, so
        # a top level that is not an object must be refused before that
        path = self._write(tmp_path, top)
        assert main(["cohomology", path]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ["config", ["config"], []])
    def test_verify_on_a_non_object_report_exit_2(self, tmp_path, capsys,
                                                  top):
        path = self._write(tmp_path, top, name="report.json")
        assert main(["verify", path]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_parser_is_built_once_per_process(self):
        from spencerkit import cli
        cli._parser.cache_clear()
        for _ in range(3):
            assert main(["cache", "ls"]) == 0
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_negative_exit_1(self, tmp_path):
        config = base_config(N=2, seed=5)
        config["subalgebra"] = {"S_prime": {"random": {"dim": 3, "seed": 5}},
                                "h": "stabiliser", "r_prime": "full"}
        path = self._write(tmp_path, config)
        assert main(["run", path]) == 1

    def test_zero_current_is_a_negative_stage(self, tmp_path):
        # an all-zero Dirac current has no section of kappa, so the
        # normalisation theory does not apply: the run ends at the
        # cohomology stage with a named reason, not as an internal failure
        out = tmp_path / "report.json"
        config = base_config(output_path=str(out), dirac_current={
            "kind": "explicit", "tensor": [[[0, 0], [0, 0]]] * 3})
        proc = self._run_child(self._write(tmp_path, config))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        report = json.loads(out.read_text())
        assert report["result"] == "negative"
        assert report["stages"][-1] == {
            "name": "cohomology", "status": "negative",
            "data": {"reason": "kappa_zero",
                     "detail": "the Dirac current vanishes identically"}}

    def test_verify_roundtrip(self, tmp_path):
        out = tmp_path / "report.json"
        config = base_config(output_path=str(out))
        path = self._write(tmp_path, config)
        assert main(["run", path]) == 0
        assert main(["verify", str(out)]) == 0

    def test_verify_rebuilds_a_kept_model(self, tmp_path, monkeypatch):
        # the run leaves its model kept; verify re-checks its certificates
        # all the same, so it builds the model once more
        from spencerkit import pipeline
        out = tmp_path / "report.json"
        path = self._write(tmp_path, base_config(output_path=str(out)))
        assert main(["run", path]) == 0
        counts = {"build_extended_flat_model": 0}
        _counting(monkeypatch, pipeline, "build_extended_flat_model", counts)
        assert main(["verify", str(out)]) == 0
        assert counts == {"build_extended_flat_model": 1}

    def test_cohomology_exits_3_when_the_action_leaves_the_cocycles(
            self, tmp_path, monkeypatch, capsys):
        # an operator whose image of every cochain is a basis cochain that
        # is not a cocycle: the a0-action on H fails its membership
        # certificate, and the subcommand exits 3 naming it
        from spencerkit import spencer
        from spencerkit.exactla import ExactMatrix

        class Leak:
            def __init__(self, cx):
                d22 = cx.differentials[2]
                self.k = next(j for j in range(d22.cols)
                              if not d22.select_columns([j]).is_zero())

            def apply_rows(self, M):
                return ExactMatrix(M.rows, M.cols,
                                   [(i, self.k, 1) for i in range(M.rows)])

        monkeypatch.setattr(spencer, "generator_actions",
                            lambda cx: [Leak(cx)])
        path = self._write(tmp_path, base_config())
        capsys.readouterr()
        assert main(["cohomology", path]) == 3
        err = capsys.readouterr().err
        assert "stage 'cohomology'" in err and \
            "a0-action does not preserve the cocycle space" in err

    def test_verify_detects_tampering(self, tmp_path):
        out = tmp_path / "report.json"
        config = base_config(output_path=str(out))
        path = self._write(tmp_path, config)
        main(["run", path])
        report = json.loads(out.read_text())
        report["stages"][0]["data"]["spinor_dim"] = 99
        out.write_text(json.dumps(report))
        assert main(["verify", str(out)]) == 3

    def test_verify_names_the_stage_and_key_that_differ(self, tmp_path,
                                                        capsys):
        # one value of the README example's report changed: verify still
        # exits 3, and names the stage and the key path inside it
        out = tmp_path / "report.json"
        path = self._write(tmp_path, dict(README_EXAMPLE,
                                          output_path=str(out)))
        assert main(["run", path]) == 0
        report = json.loads(out.read_text())
        stage = report["stages"][-1]
        assert stage["name"] == "reconstruction"
        stage["data"]["R0"][0][1][0] = "7"
        out.write_bytes(report_bytes(report))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 3
        assert capsys.readouterr().out == (
            "verify: FAIL (re-run differs from the stored report at stage "
            "'reconstruction': data.R0[0][1][0])\n")

    def test_verify_names_a_difference_outside_the_stages(self, tmp_path,
                                                          capsys):
        out = tmp_path / "report.json"
        path = self._write(tmp_path, base_config(output_path=str(out)))
        assert main(["run", path]) == 0
        report = json.loads(out.read_text())
        report["result"] = "negative"
        out.write_bytes(report_bytes(report))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 3
        assert "at report: result)" in capsys.readouterr().out
        # the same content written in another layout differs only there
        out.write_text(json.dumps(json.loads(report_bytes(
            run_pipeline(base_config(output_path=str(out)))))))
        assert main(["verify", str(out)]) == 3
        assert "at formatting only)" in capsys.readouterr().out

    def test_library_runs_are_silent(self, capsys):
        report = run_pipeline(README_EXAMPLE)
        assert report["result"] == "pass"
        assert capsys.readouterr() == ("", "")

    def test_cli_prints_each_stage_with_its_time(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        path = self._write(tmp_path, base_config(output_path=str(out)))
        assert main(["run", "--no-cache", path]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            f"[spencerkit] stage {name}" for name in STAGES]
        assert all(line.endswith("s)") and ": pass (" in line
                   for line in lines[:-1])
        # the seconds never reach the report: its bytes are a library run's
        assert out.read_bytes() == report_bytes(run_pipeline(
            base_config(output_path=str(out))))

    def test_cohomology_command(self, tmp_path, capsys):
        path = self._write(tmp_path, base_config())
        assert main(["cohomology", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["H22"]["dimH"] == 1

    def test_cache_commands(self, tmp_path, capsys):
        path = self._write(tmp_path, base_config())
        main(["run", path])
        capsys.readouterr()
        assert main(["cache", "ls"]) == 0
        keys = capsys.readouterr().out.split()
        assert len(keys) == 1
        assert main(["cache", "rm", keys[0]]) == 0
        assert main(["cache", "ls"]) == 0
        assert capsys.readouterr().out.split() == []

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_output_path_exit_2_before_any_stage(
            self, tmp_path, capsys, where):
        if where == "directory":
            out = tmp_path / "reports"
            out.mkdir()
        else:
            out = tmp_path / "missing" / "report.json"
        path = self._write(tmp_path, base_config(output_path=str(out)))
        capsys.readouterr()
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output_path ") and \
            str(out) in err
        assert "stage" not in err and cache_list() == []

    def test_failed_report_write_exit_2(self, tmp_path, capsys,
                                        monkeypatch):
        # a write that fails after the checks, as on a full disk, is a
        # config error naming the path, not a traceback
        out = tmp_path / "report.json"
        path = self._write(tmp_path, base_config(output_path=str(out)))

        def full_disk(file, mode="r", *args, **kwargs):
            if "w" in mode:
                raise OSError(28, "No space left on device")
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli_module, "open", full_disk, raising=False)
        capsys.readouterr()
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot write the report to {out}: No space " \
            "left on device" in err

    def test_cache_dir_naming_a_file_exit_2_before_any_stage(
            self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("SPENCERKIT_CACHE_DIR", str(blocker))
        path = self._write(tmp_path, base_config())
        capsys.readouterr()
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: the cache directory {blocker} "
                              "is not a directory")
        assert "stage" not in err
        # a cache directory under a file cannot be made: also exit 2
        monkeypatch.setenv("SPENCERKIT_CACHE_DIR", str(blocker / "cache"))
        with pytest.raises(ConfigError, match="cannot make the cache "
                                              "directory"):
            cache_store("0" * 64, b"{}")
        # --no-cache never touches it
        assert main(["run", path, "--no-cache"]) == 0

    @pytest.mark.parametrize("dim", [5, -1])
    def test_random_dim_out_of_range_exit_2(self, tmp_path, dim):
        # dim S = 2 here; a run in a child process, so a regression to the
        # endless rank-loss retry fails on the timeout instead of hanging
        config = base_config()
        config["subalgebra"] = {
            "S_prime": {"random": {"dim": dim, "seed": 1}},
            "h": "stabiliser", "r_prime": "zero"}
        proc = self._run_child(self._write(tmp_path, config))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("seed", [[1], None, True, 1.5])
    def test_random_seed_not_an_integer_exit_2(self, tmp_path, seed):
        # a null seed would draw from OS entropy and a list would end in a
        # TypeError; both, and booleans and floats, are config errors
        config = base_config()
        config["subalgebra"] = {
            "S_prime": {"random": {"dim": 2, "seed": seed}},
            "h": "stabiliser", "r_prime": "zero"}
        proc = self._run_child(self._write(tmp_path, config))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "S_prime.random.seed" in proc.stderr

    def test_division_by_zero_in_basis_exit_2(self, tmp_path):
        config = base_config()
        config["subalgebra"]["h"] = {"basis": [["1/0", 0, 0]]}
        assert main(["run", self._write(tmp_path, config)]) == 2

    def test_non_numeric_explicit_tensor_exit_2(self, tmp_path):
        config = base_config(dirac_current={
            "kind": "explicit",
            "tensor": [[["x", 0], [0, 1]]] * 3})
        assert main(["run", self._write(tmp_path, config)]) == 2

    def test_boolean_basis_element_exit_2(self, tmp_path):
        config = base_config(cocycle={"basis_element": False})
        assert main(["run", self._write(tmp_path, config)]) == 2

    def test_signature_0_1_runs_every_stage(self, tmp_path):
        # so(V) = 0, so h has no generators and delta1, delta2 are empty
        out = tmp_path / "report.json"
        config = base_config(signature={"s": 0, "t": 1},
                             output_path=str(out))
        assert main(["run", self._write(tmp_path, config), "--no-cache"]) == 0
        report = json.loads(out.read_text())
        assert [s["name"] for s in report["stages"]] == list(STAGES)
        assert report["result"] == "pass"

    def test_signature_0_0_exit_2(self, tmp_path):
        config = base_config(signature={"s": 0, "t": 0})
        assert main(["run", self._write(tmp_path, config)]) == 2

    def test_short_basis_vector_exit_2(self, tmp_path):
        config = base_config()
        config["subalgebra"]["S_prime"] = {"basis": [[1]]}
        assert main(["run", self._write(tmp_path, config)]) == 2

"""One run configuration: :class:`repro.runtime.config.RunConfig`.

The behaviour flags of :meth:`repro.AccProgram.run` are one frozen,
hashable value, validated once when it is built.  A flag of the wrong
type is an error that names the flag, not a truthy value the run acts
on; the run, the serve workload loader and the runtime constructors all
see the same value.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS
from repro.bench.machines import hypothetical_cluster
from repro.runtime.config import RunConfig
from repro.runtime.dirty import DEFAULT_CHUNK_BYTES
from repro.serve.workload import WorkloadError, requests_from_spec

BOOL_FIELDS = [f.name for f in dataclasses.fields(RunConfig)
               if f.type.startswith("bool")]
#: Flags left at ``None`` read the environment instead.
ENV_FIELDS = {"sanitize": "REPRO_SANITIZE", "trace": "REPRO_TRACE"}


@pytest.fixture
def no_env(monkeypatch):
    for var in ENV_FIELDS.values():
        monkeypatch.delenv(var, raising=False)


class TestFields:
    def test_fields_are_the_run_keywords_with_their_defaults(self, no_env):
        assert dataclasses.asdict(RunConfig()) == {
            "chunk_bytes": DEFAULT_CHUNK_BYTES, "reload_skipping": True,
            "tree_reduction": True, "overlap": False, "coalesce": False,
            "adaptive": False, "sanitize": False, "trace": False,
            "internode": "staged", "collective": "none"}

    def test_boolean_fields(self):
        assert BOOL_FIELDS == ["reload_skipping", "tree_reduction",
                               "overlap", "coalesce", "adaptive",
                               "sanitize", "trace"]

    def test_frozen_and_hashable(self, no_env):
        a, b = RunConfig(overlap=True), RunConfig(overlap=True)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, RunConfig()}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.overlap = False

    def test_replace_validates_again(self):
        with pytest.raises(TypeError, match="coalesce"):
            dataclasses.replace(RunConfig(), coalesce="yes")


class TestBooleanFlags:
    """Every boolean flag takes ``bool`` or ``np.bool_`` only."""

    @pytest.mark.parametrize("name", BOOL_FIELDS)
    def test_non_bool_is_a_type_error_naming_the_flag(self, name):
        bad = ["no", "0", 0, 1]
        if name not in ENV_FIELDS:
            bad.append(None)
        for value in bad:
            with pytest.raises(TypeError, match=rf"^{name} must be a bool"):
                RunConfig(**{name: value})

    @pytest.mark.parametrize("name", BOOL_FIELDS)
    def test_numpy_bool_is_accepted_as_bool(self, name):
        for value in (np.True_, np.False_):
            got = getattr(RunConfig(**{name: value}), name)
            assert got is bool(value)

    @pytest.mark.parametrize("name", BOOL_FIELDS)
    def test_run_rejects_non_bool_before_running(self, name):
        spec = ALL_APPS["md"]
        prog = repro.compile(spec.source)
        with pytest.raises(TypeError, match=name):
            prog.run(spec.entry, spec.args_for("tiny"), ngpus=2,
                     **{name: "no"})

    @pytest.mark.parametrize("name", sorted(ENV_FIELDS))
    def test_none_reads_the_environment(self, name, monkeypatch):
        var = ENV_FIELDS[name]
        for value, want in (("", False), ("0", False), ("1", True),
                            ("yes", True)):
            monkeypatch.setenv(var, value)
            assert getattr(RunConfig(), name) is want
        monkeypatch.delenv(var)
        assert getattr(RunConfig(), name) is False
        # An explicit value wins over the environment.
        monkeypatch.setenv(var, "1")
        assert getattr(RunConfig(**{name: False}), name) is False


class TestChunkBytes:
    @pytest.mark.parametrize("value", [1.5, "64", True, None])
    def test_non_integer_is_a_type_error(self, value):
        with pytest.raises(TypeError, match="chunk_bytes must be an integer"):
            RunConfig(chunk_bytes=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_below_one_is_a_value_error(self, value):
        with pytest.raises(ValueError, match="chunk_bytes must be at least 1"):
            RunConfig(chunk_bytes=value)

    def test_numpy_integer_becomes_int(self):
        got = RunConfig(chunk_bytes=np.int64(4096)).chunk_bytes
        assert got == 4096 and type(got) is int


class TestRunThreadsOneValue:
    def test_keywords_and_config_build_the_same_run(self):
        spec = ALL_APPS["bfs"]
        prog = repro.compile(spec.source)
        cluster = hypothetical_cluster(2, 2)
        flags = dict(overlap=True, coalesce=True, collective="ring",
                     chunk_bytes=4096, sanitize=False, trace=False)
        a = prog.run(spec.entry, spec.args_for("tiny"), machine=cluster,
                     ngpus=4, **flags)
        cfg = RunConfig(**flags)
        b = prog.run(spec.entry, spec.args_for("tiny"), machine=cluster,
                     ngpus=4, config=cfg)
        assert a.config == b.config == cfg
        assert a.elapsed == b.elapsed
        executor = b.executor
        assert executor.config is cfg
        assert executor.loader.config is cfg
        assert executor.comm.config is cfg
        assert executor.comm.transport.config is cfg
        assert executor.comm.transport.mode == "ring"

    def test_keywords_replace_fields_of_config(self):
        spec = ALL_APPS["md"]
        prog = repro.compile(spec.source)
        base = RunConfig(coalesce=True, sanitize=False, trace=False)
        run = prog.run(spec.entry, spec.args_for("tiny"), ngpus=2,
                       config=base, overlap=True)
        assert run.config == dataclasses.replace(base, overlap=True)

    def test_unknown_keyword_is_a_type_error(self):
        spec = ALL_APPS["md"]
        prog = repro.compile(spec.source)
        with pytest.raises(TypeError, match="overlapp"):
            prog.run(spec.entry, spec.args_for("tiny"), ngpus=2,
                     overlapp=True)


class TestServeRunFlags:
    """A workload's ``run`` object is a :class:`RunConfig`, checked when
    the workload loads, not in the worker after admission."""

    @staticmethod
    def line(run):
        return {"app": "stencil", "workload": "tiny", "ngpus": 2,
                "run": run}

    def test_run_flags_load_as_a_config(self, no_env):
        (request,) = requests_from_spec([self.line({"overlap": True})])
        assert request.config == RunConfig(overlap=True)
        (request,) = requests_from_spec([{"app": "stencil"}])
        assert request.config == RunConfig()

    def test_unknown_flag_fails_at_load(self):
        with pytest.raises(WorkloadError,
                           match=r"^requests\[1\]: bad run flags: .*overlapp"):
            requests_from_spec([self.line({}),
                                self.line({"overlapp": True})])

    def test_non_bool_flag_fails_at_load(self):
        with pytest.raises(
                WorkloadError,
                match=r"^requests\[0\]: bad run flags: overlap must be a bool"):
            requests_from_spec([self.line({"overlap": "no"})])

    def test_bad_flag_value_fails_at_load(self):
        with pytest.raises(WorkloadError,
                           match=r"^requests\[0\]: bad run flags: internode"):
            requests_from_spec([self.line({"internode": "naive",
                                           "collective": "ring"})])
        with pytest.raises(WorkloadError,
                           match=r"^requests\[0\]: bad run flags: chunk_bytes"):
            requests_from_spec([self.line({"chunk_bytes": 0})])

import io
import json
import os
import subprocess
import sys

import pytest

from hltorus import cli
from hltorus.errors import ConfigurationError, InternalConsistencyError
from hltorus.series import SeriesRing


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def test_verify_single_match_json():
    code, text = run([
        "verify", "--identity", "orthogonality", "--n", "2",
        "--lambda", "1,0", "--mu", "1,0", "--order", "10", "--json",
    ])
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["status"] == "match"
    assert rec["achieved_order"] == 10
    assert rec["wall_time_ms"] is None
    assert set(rec) == {
        "identity", "n", "m", "weight", "mu", "order", "status",
        "first_discrepancy_degree", "achieved_order", "wall_time_ms", "notes",
    }


def test_verify_symplectic_vanishes():
    code, text = run([
        "verify", "--identity", "symplectic", "--n", "2",
        "--lambda", "2,1,1,0", "--order", "8",
    ])
    assert code == 0
    assert "vanished-as-predicted" in text


def test_unknown_identity_is_usage_error():
    code, _ = run(["verify", "--identity", "made_up", "--n", "1"])
    assert code == 2


def test_negative_weight_rejected_for_partition_identities():
    code, _ = run([
        "verify", "--identity", "o_plus_even", "--n", "1", "--lambda", "1,-1",
    ])
    assert code == 2


def test_missing_m_is_usage_error():
    code, _ = run(["verify", "--identity", "unm_vanishing", "--n", "2"])
    assert code == 2


def test_n_below_minimum_is_usage_error(capsys):
    code, text = run([
        "verify", "--identity", "normalization_iii", "--n", "0", "--order", "4",
    ])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "n >= 1" in err


def test_malformed_weight_is_usage_error(capsys):
    code, text = run([
        "verify", "--identity", "o_plus_even", "--n", "1", "--lambda", "a",
    ])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "'a'" in err


def _usage_error(capsys, argv, fragment):
    code, text = run(argv)
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and fragment in err


def test_m_not_taken_is_usage_error(capsys):
    _usage_error(capsys, [
        "verify", "--identity", "orthogonality", "--n", "2", "--m", "5",
        "--lambda", "1", "--mu", "1",
    ], "takes no m")


def test_weight_not_taken_is_usage_error(capsys):
    _usage_error(capsys, [
        "verify", "--identity", "normalization_i", "--n", "1", "--lambda", "3,1",
    ], "takes no weight")


def test_mu_not_taken_is_usage_error(capsys):
    _usage_error(capsys, [
        "verify", "--identity", "o_plus_even", "--n", "1", "--mu", "7,7",
    ], "takes no mu")


def test_m_out_of_range_is_usage_error(capsys):
    _usage_error(capsys, [
        "verify", "--identity", "unm_vanishing", "--n", "1", "--m", "2",
    ], "0 <= m <= n")


def test_verify_pfaffian_bridge_json():
    code, text = run([
        "verify", "--identity", "pfaffian_minus_even", "--n", "2",
        "--lambda", "2,1", "--order", "8", "--json",
    ])
    assert code == 0
    rec = json.loads(text)
    assert rec["status"] == "match" and rec["weight"] == "2,1,0,0"


def test_list_catalog():
    code, text = run(["list"])
    assert code == 0
    lines = [l for l in text.splitlines() if l.strip()]
    assert len(lines) >= 18
    assert any(l.startswith("orthogonality") for l in lines)
    code, text = run(["list", "--json"])
    recs = [json.loads(l) for l in text.strip().splitlines()]
    assert len(recs) >= 18
    assert all(set(r) == {
        "name", "description", "weight_shape", "parameters",
        "needs_m", "needs_mu", "negative_weights",
    } for r in recs)


def test_sweep_all_pass():
    code, text = run([
        "sweep", "--identity", "o_plus_even", "--n", "1",
        "--max-weight", "4", "--order", "10", "--json",
    ])
    assert code == 0
    recs = [json.loads(l) for l in text.strip().splitlines()]
    assert len(recs) >= 5
    assert all(r["status"] in ("match", "vanished-as-predicted") for r in recs)


def test_sweep_deterministic_across_runs(clear_caches):
    base = [
        "sweep", "--identity", "symplectic", "--n", "1",
        "--max-weight", "3", "--order", "8", "--json",
    ]
    clear_caches()
    _, first = run(base)
    clear_caches()
    _, second = run(base)
    assert first == second


def test_mismatch_exit_code(register_identity):
    def bad_closed(inst):
        ring = SeriesRing(inst.order)
        return ring.zero(), ring.one()

    register_identity("always_wrong", bad_closed)
    code, text = run(["verify", "--identity", "always_wrong", "--n", "1"])
    assert code == 1
    assert "mismatch" in text


def test_resource_exit_code(monkeypatch):
    monkeypatch.setenv("HLTORUS_MAX_TERMS", "1")
    from hltorus import densities as dmod

    dmod.clear_caches()
    code, text = run([
        "verify", "--identity", "symplectic", "--n", "2", "--lambda", "1,1", "--order", "8",
    ])
    assert code == 3
    assert "resource" in text
    monkeypatch.delenv("HLTORUS_MAX_TERMS")
    dmod.clear_caches()


@pytest.mark.parametrize("name", ["HLTORUS_MAX_MIB", "HLTORUS_MAX_TERMS"])
@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-4"])
def test_invalid_limit_variable_is_usage_error(monkeypatch, capsys, name, value):
    # each value is rejected before any ceiling is applied
    monkeypatch.setenv(name, value)
    code, text = run([
        "verify", "--identity", "orthogonality", "--n", "2",
        "--lambda", "1,0", "--mu", "1,0", "--order", "4",
    ])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert name in err and "positive integer" in err
    assert "Traceback" not in err


def test_memory_ceiling_too_large_for_the_platform_is_usage_error(monkeypatch, capsys):
    # 2^44 MiB is 2^64 bytes, one past what setrlimit takes; nothing is applied
    monkeypatch.setenv("HLTORUS_MAX_MIB", str(2 ** 44))
    code, text = run(["list"])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "HLTORUS_MAX_MIB" in err


def test_memory_ceiling_above_the_hard_limit_is_usage_error():
    """A child whose hard address-space limit is 2 GiB asks for 4 GiB."""
    import resource

    hard = 2 << 30

    def lower_hard_limit():
        resource.setrlimit(resource.RLIMIT_AS, (hard, hard))

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src, HLTORUS_MAX_MIB=str(2 * hard >> 20))
    proc = subprocess.run([sys.executable, "-m", "hltorus", "list"], env=env,
                          capture_output=True, preexec_fn=lower_hard_limit, timeout=60)
    err = proc.stderr.decode()
    assert (proc.returncode, proc.stdout) == (cli.USAGE_EXIT, b""), err
    assert len(err.splitlines()) == 1 and "HLTORUS_MAX_MIB" in err, err


@pytest.mark.parametrize(
    "error",
    [InternalConsistencyError, ConfigurationError, KeyError, TypeError, ZeroDivisionError,
     SystemError],
)
def test_internal_error_exit_code(monkeypatch, capsys, error):
    def broken_verify(**kw):
        raise error("exactness check failed")

    monkeypatch.setattr(cli, "verify", broken_verify)
    code, text = run([
        "verify", "--identity", "orthogonality", "--n", "2",
        "--lambda", "1,0", "--mu", "1,0", "--order", "4",
    ])
    assert code == cli.INTERNAL_EXIT == 4
    assert text == ""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "exactness check failed" in err


@pytest.mark.parametrize("error", [MemoryError, SystemError])
def test_failed_allocation_under_a_ceiling_exits_3(monkeypatch, capsys, error):
    """Under RLIMIT_AS a failed allocation can surface as a SystemError
    instead of a MemoryError; either is the ceiling's resource hit."""
    def starved_verify(**kw):
        raise error()

    monkeypatch.setattr(cli, "_apply_memory_ceiling", lambda: True)
    monkeypatch.setattr(cli, "verify", starved_verify)
    code, text = run([
        "verify", "--identity", "orthogonality", "--n", "2",
        "--lambda", "1,0", "--mu", "1,0", "--order", "4",
    ])
    assert code == cli.RESOURCE_EXIT == 3
    assert text == ""
    assert capsys.readouterr().err == "memory ceiling exceeded\n"


def test_memory_ceiling_exits_3_at_every_ceiling():
    """One instance, whose density expansion outgrows each ceiling within
    seconds, in one process per ceiling: exit 3 and one stderr line each,
    whether the failed allocation surfaced as a MemoryError or not."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    argv = [sys.executable, "-m", "hltorus", "verify", "--identity", "kawanaka",
            "--n", "6", "--lambda", "2,1", "--order", "8"]
    procs = {}
    for mib in (36, 40, 44, 48):
        env = dict(os.environ, PYTHONPATH=src, HLTORUS_MAX_MIB=str(mib))
        env.pop("HLTORUS_MAX_TERMS", None)
        procs[mib] = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                      env=env)
    for mib, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out, err) == (cli.RESOURCE_EXIT, b"",
                                               b"memory ceiling exceeded\n"), mib


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["sweep", "--identity", "o_plus_even", "--n", "1", "--max-weight", "2", "--order", "4"],
    ["list"],
])
def test_closed_output_is_internal_error(capsys, argv):
    assert cli.main(argv, out=_ClosedPipe()) == cli.INTERNAL_EXIT
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Broken pipe" in err


def test_closed_stdout_of_the_command_exits_4():
    """A reader that is gone before the first line: exit 4, one stderr line,
    and no traceback from the interpreter's last flush either."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hltorus", "sweep", "--identity", "o_plus_even",
             "--n", "1", "--max-weight", "2", "--order", "4"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == cli.INTERNAL_EXIT, err
    assert len(err.splitlines()) == 1 and "Broken pipe" in err, err


@pytest.mark.parametrize("flag, value", [("--max-weight", "-1"), ("--max-parts", "-2")])
def test_negative_sweep_bound_is_usage_error(capsys, flag, value):
    argv = ["sweep", "--identity", "orthogonality", "--n", "2", "--order", "4", flag, value]
    code, text = run(argv)
    assert code == 2
    assert text == ""
    assert "at least 0" in capsys.readouterr().err

"""Property tests of the CLI contract: whatever the model and its
parameters, `model`, `pipeline`, `chern` and `verify` return a documented
exit code and never raise; a config error writes nothing, and a finished or
failed pipeline leaves its report beside exactly the files of the stages it
reached.  Config text that does not parse and an output path under a file
are config errors in every subcommand."""

import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from wanloc.cli import (EXIT_CONFIG, EXIT_INEQUALITY, EXIT_OK, EXIT_RUNTIME,
                        EXIT_VERDICT, main)

DOCUMENTED_EXITS = {EXIT_OK, EXIT_CONFIG, EXIT_INEQUALITY, EXIT_VERDICT,
                    EXIT_RUNTIME}

# the files a pipeline stage leaves once report.csv lists it
STAGE_FILES = {"model": {"hamiltonian.wdmx"}, "decay": {"decay.csv"},
               "basis": {"basis_initial.csv", "basis_initial.wdmx"},
               "bands": {"gaps.csv"}, "strips": {"strips.csv"},
               "fits": {"basis_final.csv", "basis_final.wdmx"},
               "chern": {"chern.csv"}}


def expected_files(report_path):
    """The files of the stages a pipeline report.csv lists.  A width whose
    certificates and gaps pass leaves X-hat and the certificates; a run that
    fails at every width leaves the certificates."""
    with open(report_path) as fh:
        rows = [line.rstrip("\n").split(",", 1) for line in fh][2:]
    files = {"report.csv"}
    for stage, outcome in rows:
        files |= STAGE_FILES.get(stage, set())
        if stage.startswith("delta=") and outcome == "certificates=ok gaps=ok":
            files |= {"certificates.csv", "xhat.wdmx"}
        if stage == "verdict" and outcome in ("certificate-failed",
                                              "gap-detection-failed"):
            files.add("certificates.csv")
    return files


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def ssh_params(draw):
    t1 = draw(_num(-1.5, 1.5))
    # |t1| = |t2| is the gapless chain, which the builder rejects
    t2 = draw(st.one_of(_num(-1.5, 1.5), st.sampled_from((t1, -t1))))
    return {"t1": t1, "t2": t2}


MODEL_PARAMS = {
    "haldane": st.fixed_dictionaries({"t1": _num(-1.5, 1.5),
                                      "t2": _num(-0.5, 0.5),
                                      "phi": _num(-3.2, 3.2),
                                      "m": _num(-3.0, 3.0)}),
    "disordered": st.fixed_dictionaries({"gap": _num(-1.0, 3.0),
                                         "w": _num(-1.0, 3.0)}),
    "ssh": ssh_params(),
    "atomic": st.fixed_dictionaries({"m": _num(-2.0, 2.0)}),
}


@st.composite
def configs(draw):
    model_type = draw(st.sampled_from(sorted(MODEL_PARAMS)))
    params = draw(MODEL_PARAMS[model_type])
    L = draw(st.integers(4, 5))
    # E_F in the gap most often; beyond the spectrum gives rank 0 or full rank
    fermi = draw(st.one_of(st.just(0.0), _num(-4.0, 4.0)))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    lines = [f"type = {model_type}", f"L = {L}", f"seed = {seed}"]
    lines += [f"{k} = {v!r}" for k, v in params.items()]
    return ("[model]\n" + "\n".join(lines)
            + f"\n\n[pipeline]\nfermi_energy = {fermi!r}\n")


@settings(database=None, derandomize=True, deadline=None, max_examples=40)
@given(configs())
def test_cli_always_returns_a_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        for command in ("model", "pipeline", "chern"):
            out = os.path.join(tmp, command)
            code = main([command, cfg, "--out", out])
            assert code in DOCUMENTED_EXITS, (command, code)
            if code == EXIT_CONFIG:
                assert not os.path.exists(out), command
            if command == "pipeline" and code in (EXIT_OK, EXIT_VERDICT):
                report = os.path.join(out, "report.csv")
                assert os.path.exists(report)
                assert set(os.listdir(out)) == expected_files(report)


@settings(database=None, derandomize=True, deadline=None, max_examples=12)
@given(configs())
# a negative disorder strength is a config error
@example("[model]\ntype = disordered\nL = 4\ngap = 2.0\nw = -0.5\n")
def test_verify_always_returns_a_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, "verify")
        code = main(["verify", cfg, "--out", out])
        assert code in DOCUMENTED_EXITS, code
        if code == EXIT_CONFIG:
            assert not os.path.exists(out)
        elif code in (EXIT_OK, EXIT_INEQUALITY):
            assert os.path.exists(os.path.join(out, "verify_summary.csv"))


COMMANDS = ("model", "pipeline", "chern", "verify")
# byte sequences that are not UTF-8
UNDECODABLE = (b"\xff", b"\xfe\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80")


@st.composite
def malformed_configs(draw):
    """The bytes of a drawn config broken in one of six ways that do not
    parse as INI text."""
    text = draw(configs())
    head, body = text.split("\n", 1)            # "[model]" and the rest
    key_line = draw(st.sampled_from(body.split("\n")[:2]))   # type or L
    word = draw(st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1,
                        max_size=8))
    form = draw(st.sampled_from(("duplicate option", "duplicate section",
                                 "no section header", "line without =",
                                 "bare %", "undecodable bytes")))
    if form == "duplicate option":
        text = f"{head}\n{key_line}\n{body}"
    elif form == "duplicate section":
        text += draw(st.sampled_from(("[model]", "[pipeline]"))) + "\n"
    elif form == "no section header":
        text = body
    elif form == "line without =":
        text = f"{head}\n{word}\n{body}"
    elif form == "bare %":
        # `%` followed by neither `%` nor `(`
        text = text.rstrip("\n") + "%" + draw(st.sampled_from(("", word)))
    data = text.encode()
    if form == "undecodable bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(UNDECODABLE)) + data[at:]
    return data


@settings(database=None, derandomize=True, deadline=None, max_examples=30)
@given(malformed_configs())
def test_malformed_config_text_is_a_config_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "wb") as fh:
            fh.write(data)
        for command in COMMANDS:
            code = main([command, cfg, "--out", os.path.join(tmp, command)])
            assert code == EXIT_CONFIG, (command, code)
            assert os.listdir(tmp) == ["run.cfg"], command


@settings(database=None, derandomize=True, deadline=None, max_examples=20)
@given(configs(), st.booleans(), st.booleans())
def test_output_path_at_or_under_a_file_is_a_config_error(text, under,
                                                          in_config):
    """`--out` or `output_dir` naming an existing file, or a path under
    one: exit 2 before any stage runs, the file untouched, nothing made."""
    with tempfile.TemporaryDirectory() as tmp:
        blocker = os.path.join(tmp, "blocker")
        with open(blocker, "w") as fh:
            fh.write("keep")
        out = os.path.join(blocker, "out") if under else blocker
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(text + (f"output_dir = {out}\n" if in_config else ""))
        for command in COMMANDS:
            argv = [command, cfg] + ([] if in_config else ["--out", out])
            assert main(argv) == EXIT_CONFIG, command
            assert sorted(os.listdir(tmp)) == ["blocker", "run.cfg"], command
            with open(blocker) as fh:
                assert fh.read() == "keep", command

import argparse
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gradleak import (
    SeedRng,
    build_model,
    default_attack_spec,
    one_hot,
    read_bundle,
    read_image,
    serialize_bundle,
    synth_image,
    victim_gradient,
    write_bundle,
    write_image,
)
import gradleak
from gradleak import cli
from gradleak.cli import build_parser, cli_main
from test_attack import ALTERED_TENSORS

README = Path(__file__).resolve().parent.parent / "README.md"


def _write_model(path, h=12, w=12, c=1, m=2):
    spec = default_attack_spec(h, w, c, m)
    path.write_text(spec.canonical_text(), encoding="utf-8")
    return spec


def _tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture()
def workspace(tmp_path):
    model = tmp_path / "model.txt"
    _write_model(model)
    image = tmp_path / "truth.pgm"
    write_image(image, synth_image("blocks", 12, 12, 1, 3))
    return tmp_path, model, image


def test_victim_grad_writes_bundle(workspace, capsys):
    tmp, model, image = workspace
    out = tmp / "g.glkb"
    code = cli_main(["victim-grad", "--model", str(model), "--image", str(image),
                     "--label", "1", "--seed", "5", "--out", str(out)])
    assert code == 0
    bundle = read_bundle(out)
    spec = default_attack_spec(12, 12, 1, 2)
    params = build_model(spec, SeedRng(5))
    expected = victim_gradient(params, read_image(image).to_tensor(), one_hot(1, 2))
    assert serialize_bundle(bundle) == serialize_bundle(expected)


def test_victim_grad_accepts_synth_descriptor(tmp_path):
    model = tmp_path / "model.txt"
    _write_model(model)
    out = tmp_path / "g.glkb"
    code = cli_main(["victim-grad", "--model", str(model),
                     "--image", "synth:blocks:12x12x1:3",
                     "--label", "0", "--seed", "5", "--out", str(out)])
    assert code == 0
    assert out.exists()


@pytest.mark.parametrize("flag, value", [("--client", "-1"), ("--round", "4294967296")])
def test_victim_grad_header_out_of_range_exits_2_and_writes_nothing(workspace, capsys,
                                                                      flag, value):
    tmp, model, image = workspace
    out = tmp / "g.glkb"
    code = cli_main(["victim-grad", "--model", str(model), "--image", str(image),
                     "--label", "1", "--seed", "5", "--out", str(out), flag, value])
    assert code == 2
    assert f"{value} outside" in capsys.readouterr().err
    assert not out.exists()


def test_attack_end_to_end(workspace, capsys):
    tmp, model, image = workspace
    grad_path = tmp / "g.glkb"
    assert cli_main(["victim-grad", "--model", str(model), "--image", str(image),
                     "--label", "0", "--seed", "5", "--out", str(grad_path)]) == 0
    out_dir = tmp / "attack"
    code = cli_main(["attack", "--model", str(model), "--grad", str(grad_path),
                     "--model-seed", "5", "--seed", "42", "--eta", "1.0",
                     "--iters", "30", "--optimizer", "gauss-newton",
                     "--truth", str(image), "--checkpoints", "10,20,30",
                     "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "recovered.pgm").exists()
    assert (out_dir / "trace.tsv").exists()
    assert (out_dir / "report.txt").exists()
    for k in (10, 20, 30):
        assert (out_dir / f"iter_{k}.pgm").exists()
    header = (out_dir / "trace.tsv").read_text().splitlines()[0]
    assert header == "iteration\tdistance\tmse_255\tmse_raw\tstep_events"
    assert "converged: true" in (out_dir / "report.txt").read_text()
    # the recovered image is pixel-exact here, so it round-trips to the truth
    assert (out_dir / "recovered.pgm").read_bytes() == image.read_bytes()


def test_attack_multi_seed_matches_single_seed_runs(workspace):
    # a shell loop over single-seed runs into <root>/seed_<s> reproduces the tree
    tmp, model, image = workspace
    grad_path = tmp / "g.glkb"
    cli_main(["victim-grad", "--model", str(model), "--image", str(image),
              "--label", "0", "--seed", "5", "--out", str(grad_path)])
    multi_dir, single_dir = tmp / "multi", tmp / "single"
    base = ["attack", "--model", str(model), "--grad", str(grad_path),
            "--model-seed", "5", "--eta", "100.0", "--iters", "10", "--checkpoints", "5,10"]
    assert cli_main(base + ["--seed", "1,2", "--out", str(multi_dir)]) == 0
    for seed in ("1", "2"):
        assert cli_main(base + ["--seed", seed, "--out", str(single_dir / f"seed_{seed}")]) == 0
    assert _tree_bytes(multi_dir) == _tree_bytes(single_dir)
    assert (multi_dir / "seed_1" / "trace.tsv").exists()
    assert (multi_dir / "seed_2" / "trace.tsv").exists()


def test_attack_jobs_is_a_usage_error(workspace, capsys):
    tmp, model, image = workspace
    grad_path = tmp / "g.glkb"
    cli_main(["victim-grad", "--model", str(model), "--image", str(image),
              "--label", "0", "--seed", "5", "--out", str(grad_path)])
    capsys.readouterr()
    out = tmp / "jobs"
    assert cli_main(["attack", "--model", str(model), "--grad", str(grad_path),
                     "--model-seed", "5", "--seed", "1,2", "--iters", "2",
                     "--jobs", "2", "--out", str(out)]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_attack_repeated_seed_exits_2_and_writes_nothing(workspace, capsys):
    # a repeated seed would run one attack twice into the same seed_<s>
    tmp, model, image = workspace
    grad_path = tmp / "g.glkb"
    cli_main(["victim-grad", "--model", str(model), "--image", str(image),
              "--label", "0", "--seed", "5", "--out", str(grad_path)])
    capsys.readouterr()
    out = tmp / "repeated"
    assert cli_main(["attack", "--model", str(model), "--grad", str(grad_path),
                     "--model-seed", "5", "--seed", "1,2,1", "--iters", "2",
                     "--out", str(out)]) == 2
    assert "seeds must be unique, got (1, 2, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_attack_diverging_on_its_last_step_exits_3_and_writes_nothing(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text("input h=4 w=4 c=1\nflatten\ndense out=2 bias=yes\n", encoding="utf-8")
    grad_path = tmp_path / "g.glkb"
    assert cli_main(["victim-grad", "--model", str(model), "--image", "synth:blocks:4x4x1:3",
                     "--label", "1", "--seed", "3", "--out", str(grad_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "diverged"
    assert cli_main(["attack", "--model", str(model), "--grad", str(grad_path),
                     "--model-seed", "3", "--seed", "4", "--iters", "1", "--eta", "1000",
                     "--out", str(out)]) == 3
    assert "at iteration 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--optimizer", "gauss-newton", "--eta", "nan"], "eta must be positive and finite"),
    (["--improved", "--lambda", "nan"], "lambda_mean must be finite"),
    (["--improved", "--optimizer", "gauss-newton"], "improved variant applies to the gd"),
    (["--halve-on-increase", "--optimizer", "gauss-newton"], "halve_on_increase applies"),
], ids=["eta-nan", "lambda-nan", "improved-gauss-newton", "halve-gauss-newton"])
def test_attack_rejected_setting_exits_2_and_writes_nothing(workspace, capsys, extra, message):
    tmp, model, image = workspace
    grad_path = tmp / "g.glkb"
    cli_main(["victim-grad", "--model", str(model), "--image", str(image),
              "--label", "0", "--seed", "5", "--out", str(grad_path)])
    capsys.readouterr()
    out = tmp / "rejected"
    assert cli_main(["attack", "--model", str(model), "--grad", str(grad_path),
                     "--model-seed", "5", "--seed", "1", "--iters", "2",
                     "--out", str(out)] + extra) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_attack_digest_mismatch_exits_2(workspace, capsys):
    tmp, model, image = workspace
    other_model = tmp / "other.txt"
    _write_model(other_model, m=3)
    grad_path = tmp / "g.glkb"
    cli_main(["victim-grad", "--model", str(other_model), "--image", str(image),
              "--label", "0", "--seed", "5", "--out", str(grad_path)])
    code = cli_main(["attack", "--model", str(model), "--grad", str(grad_path),
                     "--model-seed", "5", "--seed", "1", "--iters", "5",
                     "--checkpoints", "5", "--out", str(tmp / "x")])
    assert code == 2
    assert "digest" in capsys.readouterr().err
    assert not (tmp / "x").exists()


def _altered_bundle(tmp, image, alter):
    """A bundle whose digest fits the model, altered by ALTERED_TENSORS[alter]."""
    spec = default_attack_spec(12, 12, 1, 2)
    bundle = victim_gradient(build_model(spec, SeedRng(5)),
                             read_image(image).to_tensor(), one_hot(0, 2))
    grad_path = tmp / "g.glkb"
    write_bundle(grad_path, replace(bundle, tensors=ALTERED_TENSORS[alter](bundle.tensors)))
    return grad_path


@pytest.mark.parametrize("optimizer", ["gd", "gauss-newton"])
@pytest.mark.parametrize("alter", sorted(ALTERED_TENSORS))
def test_attack_bundle_tensor_mismatch_exits_2_and_writes_nothing(workspace, capsys,
                                                                   optimizer, alter):
    # the digest fits the model, but one tensor does not fit its parameter
    tmp, model, image = workspace
    grad_path = _altered_bundle(tmp, image, alter)
    out = tmp / "x"
    assert cli_main(["attack", "--model", str(model), "--grad", str(grad_path),
                     "--model-seed", "5", "--seed", "1", "--iters", "2",
                     "--optimizer", optimizer, "--out", str(out)]) == 2
    assert "bundle tensors" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alter", sorted(ALTERED_TENSORS))
def test_infer_label_bundle_tensor_mismatch_exits_2(workspace, capsys, alter):
    # with --model, the tensors must be the model's parameters in its order
    tmp, model, image = workspace
    grad_path = _altered_bundle(tmp, image, alter)
    assert cli_main(["infer-label", "--grad", str(grad_path), "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bundle tensors" in captured.err and "order" in captured.err


def test_analytic_fc_and_infer_label(workspace, capsys):
    tmp, model, image = workspace
    grad_path = tmp / "g.glkb"
    cli_main(["victim-grad", "--model", str(model), "--image", str(image),
              "--label", "1", "--seed", "5", "--out", str(grad_path)])
    out = tmp / "x.tsv"
    assert cli_main(["analytic-fc", "--grad", str(grad_path), "--layer", "fc1",
                     "--out", str(out)]) == 0
    values = [float(line) for line in out.read_text().splitlines()]
    assert len(values) == 3 * 3 * 12  # flattened features feeding the dense layer

    capsys.readouterr()
    assert cli_main(["infer-label", "--grad", str(grad_path)]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert cli_main(["infer-label", "--grad", str(grad_path),
                     "--model", str(model)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def _unbiased_final_layer_bundle(tmp_path):
    # fc1 is a biased hidden layer; the final layer fc2 has no bias
    model = tmp_path / "model.txt"
    model.write_text("input h=4 w=4 c=1\nflatten\ndense out=5 bias=yes\n"
                     "act sigmoid\ndense out=3 bias=no\n", encoding="utf-8")
    grad_path = tmp_path / "h.glkb"
    assert cli_main(["victim-grad", "--model", str(model),
                     "--image", "synth:blocks:4x4x1:3", "--label", "0",
                     "--seed", "3", "--out", str(grad_path)]) == 0
    return model, grad_path


def test_infer_label_final_layer_without_bias_exits_2(tmp_path, capsys):
    model, grad_path = _unbiased_final_layer_bundle(tmp_path)
    capsys.readouterr()
    assert cli_main(["infer-label", "--grad", str(grad_path)]) == 2
    assert "'fc2'" in capsys.readouterr().err
    assert cli_main(["infer-label", "--grad", str(grad_path), "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert "'fc2'" in captured.err
    assert captured.out == ""


def test_gauss_newton_attack_final_layer_without_bias_exits_2(tmp_path, capsys):
    # gauss-newton fixes the label by the sign rule, which needs fc2's bias
    model, grad_path = _unbiased_final_layer_bundle(tmp_path)
    capsys.readouterr()
    out = tmp_path / "gn"
    assert cli_main(["attack", "--model", str(model), "--grad", str(grad_path),
                     "--model-seed", "3", "--seed", "1", "--iters", "2",
                     "--optimizer", "gauss-newton", "--out", str(out)]) == 2
    assert "'fc2'" in capsys.readouterr().err
    assert not out.exists()


def test_lambda_without_improved_exits_2(workspace, capsys):
    tmp, model, image = workspace
    grad_path = tmp / "g.glkb"
    cli_main(["victim-grad", "--model", str(model), "--image", str(image),
              "--label", "0", "--seed", "5", "--out", str(grad_path)])
    base = ["attack", "--model", str(model), "--grad", str(grad_path),
            "--model-seed", "5", "--seed", "1", "--iters", "2", "--lambda", "0.5"]
    capsys.readouterr()
    assert cli_main(base + ["--out", str(tmp / "plain")]) == 2
    err = capsys.readouterr().err
    assert "--lambda" in err and "--improved" in err
    assert not (tmp / "plain").exists()
    assert cli_main(base + ["--improved", "--out", str(tmp / "improved")]) == 0
    assert (tmp / "improved" / "trace.tsv").exists()


def _readme_commands():
    """Every `gradleak ...` line of the README's sh blocks, continuations
    joined and comments stripped, as an argument list."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gradleak"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "demo", "victim-grad", "attack", "infer-label", "analytic-fc", "eval"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_flags_exist():
    # prose included: the README may name only options some subcommand has
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text(encoding="utf-8")))
    (commands,) = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    known = {opt for sub in commands.choices.values() for action in sub._actions
             for opt in action.option_strings}
    assert flags and sorted(flags - known) == []


def test_eval_identical_prints_zero(workspace, capsys):
    tmp, model, image = workspace
    assert cli_main(["eval", "--truth", str(image), "--candidate", str(image)]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_eval_differing_images(workspace, capsys):
    tmp, model, image = workspace
    other = tmp / "other.pgm"
    write_image(other, synth_image("blocks", 12, 12, 1, 4))
    assert cli_main(["eval", "--truth", str(image), "--candidate", str(other)]) == 0
    assert float(capsys.readouterr().out.strip()) > 0


def test_usage_error_exits_1(capsys):
    assert cli_main(["attack", "--model", "x"]) == 1
    assert cli_main(["no-such-command"]) == 1
    assert cli_main([]) == 1


def test_cli_main_calls_share_one_parser_and_no_state(workspace, capsys):
    # the parser is built on the first call, not at import, and then reused;
    # a call, or its usage error, leaves nothing for the next call to parse
    code = "import gradleak.cli as c; print(c._parser.cache_info().currsize)"
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(Path(gradleak.__file__).parents[1])})
    assert fresh.stdout.strip() == "0"
    tmp, model, image = workspace
    other = tmp / "other.pgm"
    write_image(other, synth_image("blocks", 12, 12, 1, 4))
    grad_path = tmp / "g.glkb"
    assert cli_main(["victim-grad", "--model", str(model), "--image", str(image),
                     "--label", "1", "--seed", "5", "--out", str(grad_path)]) == 0
    capsys.readouterr()
    assert cli_main(["infer-label", "--grad", str(grad_path), "--model", str(model)]) == 0
    assert cli_main(["attack", "--model", str(model)]) == 1
    assert cli_main(["eval", "--truth", str(image), "--candidate", str(other)]) == 0
    assert cli_main(["eval", "--truth", str(image)]) == 1
    assert cli_main(["eval", "--truth", str(image), "--candidate", str(image)]) == 0
    out = capsys.readouterr().out.split()
    assert out[0] == "1" and float(out[1]) > 0 and out[2] == "0"
    parser = cli._parser()
    assert cli._parser() is parser
    with_model = parser.parse_args(["infer-label", "--grad", "g", "--model", "m"])
    assert parser.parse_args(["infer-label", "--grad", "g"]).model is None
    assert with_model.model == "m"
    assert sorted(vars(parser.parse_args(["eval", "--truth", "a", "--candidate", "b"]))) == [
        "candidate", "command", "func", "truth"]


def test_missing_file_exits_1(tmp_path, capsys):
    assert cli_main(["eval", "--truth", str(tmp_path / "nope.pgm"),
                     "--candidate", str(tmp_path / "nope.pgm")]) == 1


def test_corrupt_inputs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.glkb"
    bad.write_bytes(b"NOPE")
    assert cli_main(["infer-label", "--grad", str(bad)]) == 2

    bad_img = tmp_path / "bad.pgm"
    bad_img.write_bytes(b"P5\n2 2\n255\n\x00")
    assert cli_main(["eval", "--truth", str(bad_img), "--candidate", str(bad_img)]) == 2

    bad_model = tmp_path / "bad.txt"
    degenerate = ("input h=12 w=12 c=1\nconv k=3 out=2 stride=0 pad=0\n"
                  "flatten\ndense out=2 bias=yes\n")
    for text in ("wibble\n", degenerate):
        bad_model.write_text(text)
        assert cli_main(["victim-grad", "--model", str(bad_model),
                         "--image", "synth:blocks:12x12x1:1", "--label", "0",
                         "--seed", "1", "--out", str(tmp_path / "g.glkb")]) == 2
    assert "stride 0" in capsys.readouterr().err


def test_model_file_that_is_not_utf8_exits_2_and_writes_nothing(tmp_path, capsys):
    bad_model = tmp_path / "bad.txt"
    text = default_attack_spec(12, 12, 1, 2).canonical_text().encode("utf-8")
    first, rest = text.split(b"\n", 1)
    bad_model.write_bytes(first + b"\n# \xff\n" + rest)
    out = tmp_path / "g.glkb"
    assert cli_main(["victim-grad", "--model", str(bad_model),
                     "--image", "synth:blocks:12x12x1:1", "--label", "0",
                     "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gradleak: parse error: ")
    assert err.rstrip().endswith(f"(at byte {len(first) + 3})")
    assert not out.exists()


@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_model_file_line_endings_parse_alike_and_offsets_count_file_bytes(
        eol, tmp_path, capsys):
    lines = default_attack_spec(12, 12, 1, 2).canonical_text().encode("utf-8").splitlines()
    args = ["--image", "synth:blocks:12x12x1:1", "--label", "0", "--seed", "1"]
    model = tmp_path / "model.txt"
    model.write_bytes(b"\n".join(lines) + b"\n")
    assert cli_main(["victim-grad", "--model", str(model), *args,
                     "--out", str(tmp_path / "lf.glkb")]) == 0
    model.write_bytes(eol.join(lines) + eol)
    assert cli_main(["victim-grad", "--model", str(model), *args,
                     "--out", str(tmp_path / "g.glkb")]) == 0
    assert (tmp_path / "g.glkb").read_bytes() == (tmp_path / "lf.glkb").read_bytes()
    capsys.readouterr()

    lines[8] = b"dnese" + lines[8][len(b"dense"):]
    data = eol.join(lines) + eol
    model.write_bytes(data)
    assert cli_main(["victim-grad", "--model", str(model), *args,
                     "--out", str(tmp_path / "bad.glkb")]) == 2
    err = capsys.readouterr().err
    assert "line 9: unknown layer kind 'dnese'" in err
    assert err.rstrip().endswith(f"(at byte {data.index(b'dnese')})")


def test_demo_runs_and_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["demo", "--seed", "7", "--out", str(a)]) == 0
    out = capsys.readouterr().out
    assert "final mse_255" in out
    assert float(out.split("final mse_255:")[1].strip()) <= 5.0
    assert cli_main(["demo", "--seed", "7", "--out", str(b)]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)
    for name in ("truth.pgm", "model.txt", "grad.glkb", "recovered.pgm",
                 "trace.tsv", "report.txt"):
        assert (a / name).exists()

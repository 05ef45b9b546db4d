"""Command-line surface wiring victim simulation, attacks and evaluation.

Every subcommand is deterministic given its flags: all randomness flows from
explicit seeds, and outputs carry no timestamps, so re-running a command over
the same inputs reproduces every artifact byte for byte.

Exit codes: 0 success, 1 usage error, 2 parse/format/compatibility error,
3 attack divergence.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .attack import (
    AttackConfig,
    AttackTrace,
    dlg_attack,
    fc_analytic_reconstruct,
    improved_dlg,
    infer_label_from_bundle,
    label_from_gradient_sign,
)
from .errors import (
    ContractError,
    DivergenceError,
    GradleakError,
    IncompatibilityError,
    ParseError,
)
from .flsim import read_bundle, victim_gradient, write_bundle
from .metrics import ImagePair, convergence_report, mse_255, report_kv
from .models import ModelSpec, build_model, default_attack_spec, one_hot, parse_model_text
from .netpbm import ImageBuffer, image_extension, read_image, synth_image, write_image
from .tensor import SeedRng, Tensor

# demo pipeline pins: 16x16 grayscale two-class run that lands under MSE 5
DEMO_SIZE = 16
DEMO_KIND = "blocks"
DEMO_ETA = 1.0
DEMO_ITERS = 200
DEMO_INIT_OFFSET = 1000003  # attack-init seed = demo seed + this


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_image(spec: str) -> ImageBuffer:
    """Either a PGM/PPM path or a descriptor synth:KIND:WxHxC:SEED."""
    if spec.startswith("synth:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ContractError(f"bad synthetic image descriptor {spec!r}, "
                                "expected synth:KIND:WxHxC:SEED")
        _, kind, dims, seed_text = parts
        try:
            w, h, c = (int(v) for v in dims.split("x"))
            seed = int(seed_text)
        except ValueError:
            raise ContractError(f"bad synthetic image descriptor {spec!r}") from None
        return synth_image(kind, w, h, c, seed)
    return read_image(spec)


def _load_model(path: str) -> ModelSpec:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"model file is not valid UTF-8: {e.reason}", e.start) from None
    # A lone CR ends a line as LF does (one byte for one, so offsets still
    # count the file's bytes); a CRLF is left whole and its CR stripped per line.
    return parse_model_text(re.sub("\r(?!\n)", "\n", text))


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ContractError(f"bad {what} list {text!r}") from None


def _format_float(value: float) -> str:
    return f"{value:.17g}"


def _write_trace(path: Path, trace: AttackTrace) -> None:
    lines = ["iteration\tdistance\tmse_255\tmse_raw\tstep_events"]
    for r in trace.records:
        mse = "nan" if r.mse_255 is None else repr(r.mse_255)
        raw = "nan" if r.mse_raw is None else repr(r.mse_raw)
        lines.append(f"{r.iteration}\t{r.distance!r}\t{mse}\t{raw}\t{r.step_events}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_snapshot(path: Path, tensor: Tensor) -> None:
    write_image(path, ImageBuffer.from_tensor(tensor))


def _run_attack_once(spec, params, bundle, cfg, truth, out_dir: Path) -> AttackTrace:
    runner = improved_dlg if cfg.variant == "improved" else dlg_attack
    sample, trace = runner(spec, params, bundle, cfg, truth=truth)
    out_dir.mkdir(parents=True, exist_ok=True)  # an attack that raises leaves no directory
    ext = image_extension(spec.input_shape[2])
    _write_snapshot(out_dir / f"recovered.{ext}", sample.x_virtual)
    for record in trace.records:
        _write_snapshot(out_dir / f"iter_{record.iteration}.{ext}", record.snapshot)
    _write_trace(out_dir / "trace.tsv", trace)
    if truth is not None:
        report = convergence_report(trace)
        (out_dir / "report.txt").write_text(report_kv(report), encoding="utf-8")
    return trace


def _cmd_victim_grad(args) -> int:
    spec = _load_model(args.model)
    image = _load_image(args.image)
    x = image.to_tensor()
    params = build_model(spec, SeedRng(args.seed))
    target = one_hot(args.label, spec.classes)
    bundle = victim_gradient(params, x, target,
                             client_id=args.client, round_index=args.round)
    write_bundle(args.out, bundle)
    print(f"wrote {args.out} ({len(bundle.tensors)} gradient tensors)")
    return 0


def _cmd_attack(args) -> int:
    if args.lam is not None and not args.improved:
        raise ContractError("--lambda weights the penalty that --improved adds; "
                            "give both or neither")
    spec = _load_model(args.model)
    bundle = read_bundle(args.grad)
    params = build_model(spec, SeedRng(args.model_seed))
    truth = _load_image(args.truth).to_tensor() if args.truth else None
    seeds = _parse_int_list(args.seed, "seed")
    if len(set(seeds)) != len(seeds):
        raise ContractError(f"seeds must be unique, got {seeds}")
    checkpoints = _parse_int_list(args.checkpoints, "checkpoint") if args.checkpoints else None
    penalty = {} if args.lam is None else {"lambda_mean": args.lam}

    def config_for(seed: int) -> AttackConfig:
        return AttackConfig(
            eta=args.eta,
            iterations=args.iters,
            seed=seed,
            variant="improved" if args.improved else "baseline",
            checkpoints=checkpoints,
            halve_on_increase=args.halve_on_increase,
            optimizer=args.optimizer.replace("-", "_"),
            **penalty,
        )

    configs = [config_for(seed) for seed in seeds]  # all checked before any write
    out_root = Path(args.out)
    if len(seeds) == 1:
        trace = _run_attack_once(spec, params, bundle, configs[0], truth, out_root)
        final = trace.records[-1] if trace.records else None
        if final is not None and final.mse_255 is not None:
            print(f"final mse_255: {_format_float(final.mse_255)}")
        return 0

    for seed, cfg in zip(seeds, configs):
        _run_attack_once(spec, params, bundle, cfg, truth, out_root / f"seed_{seed}")
    print(f"ran {len(seeds)} attacks under {out_root}")
    return 0


def _cmd_analytic_fc(args) -> int:
    bundle = read_bundle(args.grad)
    try:
        grad_w = bundle.get(f"{args.layer}.W")
        grad_b = bundle.get(f"{args.layer}.B")
    except KeyError as e:
        raise IncompatibilityError(f"bundle has no gradient tensor {e.args[0]!r}") from None
    recovered = fc_analytic_reconstruct(grad_w, grad_b)
    lines = [repr(v) for v in recovered.tolist()]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out} ({recovered.size} values)")
    return 0


def _cmd_infer_label(args) -> int:
    bundle = read_bundle(args.grad)
    if args.model:
        label = label_from_gradient_sign(bundle, _load_model(args.model))
    else:
        label = infer_label_from_bundle(bundle)
    print(label)
    return 0


def _cmd_eval(args) -> int:
    truth = _load_image(args.truth).to_tensor()
    candidate = _load_image(args.candidate).to_tensor()
    print(_format_float(mse_255(ImagePair(truth, candidate))))
    return 0


def _cmd_demo(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    image = synth_image(DEMO_KIND, DEMO_SIZE, DEMO_SIZE, 1, args.seed)
    write_image(out / "truth.pgm", image)
    spec = default_attack_spec(DEMO_SIZE, DEMO_SIZE, 1, 2)
    (out / "model.txt").write_text(spec.canonical_text(), encoding="utf-8")
    params = build_model(spec, SeedRng(args.seed))
    truth = image.to_tensor()
    label = args.seed % 2
    bundle = victim_gradient(params, truth, one_hot(label, 2))
    write_bundle(out / "grad.glkb", bundle)
    cfg = AttackConfig(
        eta=DEMO_ETA,
        iterations=DEMO_ITERS,
        seed=args.seed + DEMO_INIT_OFFSET,
        optimizer="gauss_newton",
    )
    trace = _run_attack_once(spec, params, bundle, cfg, truth, out)
    final = trace.records[-1]
    inferred = label_from_gradient_sign(bundle, spec)
    print(f"true label: {label}, inferred from gradient sign: {inferred}")
    print(f"final mse_255: {_format_float(final.mse_255)}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="gradleak",
                     description="Gradient inversion attacks on simulated federated rounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("victim-grad", help="compute a client's true gradient bundle")
    p.add_argument("--model", required=True, help="model spec file")
    p.add_argument("--image", required=True,
                   help="PGM/PPM path or synth:KIND:WxHxC:SEED descriptor")
    p.add_argument("--label", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="parameter init seed")
    p.add_argument("--client", type=int, default=0)
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--out", required=True, help="output .glkb path")
    p.set_defaults(func=_cmd_victim_grad)

    p = sub.add_parser("attack", help="run the gradient-matching reconstruction")
    p.add_argument("--model", required=True)
    p.add_argument("--grad", required=True, help="captured .glkb bundle")
    p.add_argument("--model-seed", type=int, required=True,
                   help="seed the victim used to initialize the shared weights")
    p.add_argument("--seed", required=True,
                   help="attack init seed, or comma-separated list of seeds")
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--improved", action="store_true",
                   help="add the mean-anchoring penalty (gd only)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="mean-anchor penalty weight; needs --improved")
    p.add_argument("--truth", default=None,
                   help="ground-truth image; enables MSE columns and report.txt")
    p.add_argument("--checkpoints", default=None, help="comma-separated iteration list")
    p.add_argument("--halve-on-increase", action="store_true",
                   help="halve the step size whenever a step increases the distance (gd only)")
    p.add_argument("--optimizer", choices=("gd", "gauss-newton"), default="gd",
                   help="update rule: fixed-step descent or damped least squares")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("analytic-fc", help="closed-form dense-layer input recovery")
    p.add_argument("--grad", required=True)
    p.add_argument("--layer", required=True, help="layer name, e.g. fc1")
    p.add_argument("--out", required=True, help="output TSV path")
    p.set_defaults(func=_cmd_analytic_fc)

    p = sub.add_parser("infer-label", help="read the label off the bias gradient sign")
    p.add_argument("--grad", required=True)
    p.add_argument("--model", default=None,
                   help="optional model spec for digest validation")
    p.set_defaults(func=_cmd_infer_label)

    p = sub.add_parser("eval", help="MSE (0-255 scale) between two images")
    p.add_argument("--truth", required=True)
    p.add_argument("--candidate", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("demo", help="synthesize, leak, attack and evaluate end to end")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_demo)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser every `cli_main` call uses, built on the first one; parsing
    keeps no state in it."""
    return build_parser()


def cli_main(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"gradleak: no such file: {e.filename}", file=sys.stderr)
        return 1
    except DivergenceError as e:
        print(f"gradleak: attack diverged: {e}", file=sys.stderr)
        return 3
    except ParseError as e:
        print(f"gradleak: parse error: {e}", file=sys.stderr)
        return 2
    except GradleakError as e:
        print(f"gradleak: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"gradleak: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()

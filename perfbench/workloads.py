"""The benchmark's three workloads, each a closed loop over one kind of op.

Each workload derives every input from the workload seed. `setup` builds the
inputs and warms up, `prepare(i)` does the untimed per-op preparation,
`run` is the timed op, and `check` verifies the op's output against
references written here, independent of the code under test.

    gn-demo-16   one `gradleak demo --seed s` through `cli_main`
    gd-label-12  one 120-step fixed-step attack on a 12x12 image
    fl-round-32  one federated round of eight clients on a 32x32x3 model

No workload calls `gradleak.ops`: the eager ops sit on no pipeline path
(only `conv_output_size` runs, while graphs are built).
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np

import gradleak.attack as attack
import gradleak.cli as cli
import gradleak.flsim as flsim
import gradleak.models as models
from gradleak.netpbm import synth_image
from gradleak.tensor import SeedRng

_U31 = 2**31


def _derived(seed: int, stream: int) -> SeedRng:
    """An independent stream of draws for one use of the workload seed."""
    return SeedRng(seed * 1_000_003 + stream)


def _draw_int(rng: SeedRng, bound: int) -> int:
    return int(rng.uniform() * bound)


class GnDemo:
    """`gradleak demo`: 16x16 blocks image, 2-class CNN, 200 Gauss-Newton steps.

    Op i runs demo seed `seed * 1000 + i`, so workload seed 0 starts with
    the README's demo seed 0.
    """

    name = "gn-demo-16"
    cycle = 1

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def setup(self, seed: int) -> None:
        self.seed = seed
        # warm-up: the demo's own victim gradient, which touches every kernel
        spec = models.default_attack_spec(cli.DEMO_SIZE, cli.DEMO_SIZE, 1, 2)
        params = models.build_model(spec, SeedRng(self.demo_seed(0)))
        image = synth_image(cli.DEMO_KIND, cli.DEMO_SIZE, cli.DEMO_SIZE, 1, self.demo_seed(0))
        flsim.victim_gradient(params, image.to_tensor(), models.one_hot(0, 2))

    def demo_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def prepare(self, i: int):
        tmp = Path(tempfile.mkdtemp(prefix="demo-", dir=self.work_dir))
        return {"seed": self.demo_seed(i), "tmp": tmp, "out": tmp / "out"}

    def run(self, args):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.cli_main(["demo", "--seed", str(args["seed"]), "--out", str(args["out"])])
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, args, result):
        try:
            return self._check(args, result)
        finally:
            shutil.rmtree(args["tmp"])

    def _check(self, args, result):
        code, stdout, stderr = result
        if code != 0:
            return False, {}, f"exit code {code}: {stderr.strip()}"
        expected = args["seed"] % 2
        m = re.search(r"true label: (\d+), inferred from gradient sign: (\d+)", stdout)
        if m is None or int(m.group(1)) != expected or int(m.group(2)) != expected:
            return False, {}, f"label line {stdout.splitlines()[:1]} != label {expected}"
        out = args["out"]
        report = dict(line.split(": ", 1)
                      for line in (out / "report.txt").read_text().splitlines())
        last_row = (out / "trace.tsv").read_text().splitlines()[-1].split("\t")
        facts = {"final_mse_255": float(report["final_mse"]), "step_events": int(last_row[4])}
        if report["converged"] != "true" or report["monotone_mse"] != "true":
            return False, facts, (f"converged: {report['converged']}, "
                                  f"monotone_mse: {report['monotone_mse']}")
        return True, facts, ""


class GdLabel:
    """Criterion-7 label recovery: 120 fixed steps (eta 1) on a 12x12 image.

    Ops alternate `dlg_attack` and `improved_dlg` (lambda 0.01) over a pool
    of victim bundles built in set-up; the pool size is odd so each bundle
    meets both variants.
    """

    name = "gd-label-12"
    cycle = 2
    pool_size = 25

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.spec = models.default_attack_spec(12, 12, 1, 2)
        rng = _derived(seed, 1)
        self.pool = []
        for _ in range(self.pool_size):
            params = models.build_model(self.spec, SeedRng(_draw_int(rng, _U31)))
            truth = synth_image("blocks", 12, 12, 1, _draw_int(rng, _U31)).to_tensor()
            label = _draw_int(rng, 2)
            bundle = flsim.victim_gradient(params, truth, models.one_hot(label, 2))
            self.pool.append((params, truth, label, bundle))
        # warm-up: both variants, compiled and stepped twice
        for variant in ("baseline", "improved"):
            params, _, _, bundle = self.pool[0]
            cfg = attack.AttackConfig(eta=1.0, iterations=2, checkpoints=(2,),
                                      variant=variant, lambda_mean=0.01)
            runner = attack.dlg_attack if variant == "baseline" else attack.improved_dlg
            runner(self.spec, params, bundle, cfg)

    def prepare(self, i: int):
        params, truth, label, bundle = self.pool[i % self.pool_size]
        improved = i % 2 == 1
        cfg = attack.AttackConfig(
            eta=1.0, iterations=120, checkpoints=(120,),
            seed=_draw_int(_derived(self.seed, 1000 + i), _U31),
            variant="improved" if improved else "baseline", lambda_mean=0.01,
        )
        return {"params": params, "truth": truth, "label": label, "bundle": bundle,
                "cfg": cfg, "improved": improved}

    def run(self, args):
        runner = attack.improved_dlg if args["improved"] else attack.dlg_attack
        sample, _ = runner(self.spec, args["params"], args["bundle"], args["cfg"])
        return sample

    def check(self, args, sample):
        guess = int(np.argmax(sample.y_virtual.array))
        diff = 255.0 * (args["truth"].array - np.clip(sample.x_virtual.array, 0.0, 1.0))
        facts = {"final_mse_255": float(np.mean(diff * diff))}
        if guess != args["label"]:
            return False, facts, f"argmax(y') = {guess}, true label {args['label']}"
        return True, facts, ""


class FlRound:
    """One federated round on the 10-class default CNN at 32x32x3.

    Eight clients hold fixed private images (gradient, blocks and
    light-background kinds) and labels. Each round draws fresh weights from
    its round seed; every client computes and serializes its gradient; the
    server decodes and averages them; the attacker reads each client's label
    off the gradient sign and inverts `fc1` in closed form.
    """

    name = "fl-round-32"
    cycle = 1
    clients = 8
    kinds = ("gradient", "blocks", "light-background")

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.spec = models.default_attack_spec(32, 32, 3, 10)
        rng = _derived(seed, 2)
        self.images, self.labels, self.targets = [], [], []
        for c in range(self.clients):
            kind = self.kinds[c % len(self.kinds)]
            self.images.append(synth_image(kind, 32, 32, 3, _draw_int(rng, _U31)).to_tensor())
            label = _draw_int(rng, 10)
            self.labels.append(label)
            self.targets.append(models.one_hot(label, 10))
        warm_up = self.prepare(0)
        self.check(warm_up, self.run(warm_up))

    def prepare(self, i: int):
        return {"round": i, "seed": _draw_int(_derived(self.seed, 3000 + i), _U31)}

    def run(self, args):
        params = models.build_model(self.spec, SeedRng(args["seed"]))
        blobs = [
            flsim.serialize_bundle(flsim.victim_gradient(
                params, self.images[c], self.targets[c], client_id=c,
                round_index=args["round"]))
            for c in range(self.clients)
        ]
        received = [flsim.deserialize_bundle(blob) for blob in blobs]
        mean = flsim.aggregate(received)
        labels = [attack.label_from_gradient_sign(b, self.spec) for b in received]
        features = [attack.fc_analytic_reconstruct(b.get("fc1.W"), b.get("fc1.B"))
                    for b in received]
        return params, blobs, received, mean, labels, features

    def check(self, args, result):
        params, blobs, received, mean, labels, features = result
        if labels != self.labels:
            return False, {}, f"sign labels {labels} != true labels {self.labels}"
        for c, blob in enumerate(blobs):
            if flsim.serialize_bundle(flsim.deserialize_bundle(blob)) != blob:
                return False, {}, f"client {c}: bundle does not round-trip"
        for name, tensor in mean.tensors:
            stacked = np.stack([b.get(name).array for b in received])
            expected = stacked.mean(axis=0)
            scale = float(np.abs(stacked).max())
            if not np.allclose(tensor.array, expected, rtol=1e-12, atol=1e-15 * scale):
                return False, {}, f"aggregate {name} differs from the NumPy mean"
        for c in range(self.clients):
            expected = fc1_input(params, self.images[c].array)
            if not np.allclose(features[c].array, expected, rtol=1e-9, atol=1e-12):
                err = float(np.abs(features[c].array - expected).max())
                return False, {}, f"client {c}: fc1 input off by {err:.3g}"
        return True, {}, ""


def fc1_input(params, x: np.ndarray) -> np.ndarray:
    """The default CNN's input to `fc1`, by a plain NumPy forward pass.

    conv(5x5, pad 2) -> sigmoid -> 2x2 mean pool, twice, then flatten in
    HxWxC order; the convolution is a cross-correlation over kernels laid
    out kh x kw x C x D, as the model spec defines it.
    """
    h = x
    for layer in ("conv1", "conv2"):
        kernel = params.weights[layer]["W"].array
        k = kernel.shape[0]
        pad = k // 2
        padded = np.pad(h, ((pad, pad), (pad, pad), (0, 0)))
        rows, cols = h.shape[0], h.shape[1]
        z = np.zeros((rows, cols, kernel.shape[3]))
        for a in range(k):
            for b in range(k):
                z += padded[a:a + rows, b:b + cols, :] @ kernel[a, b]
        s = 1.0 / (1.0 + np.exp(-z))
        h = s.reshape(rows // 2, 2, cols // 2, 2, -1).mean(axis=(1, 3))
    return h.reshape(-1)


WORKLOADS = {cls.name: cls for cls in (GnDemo, GdLabel, FlRound)}

"""The paper's two-stage workflow, timed: search (Alg. 1) then retrain (Alg. 2).

Every workload runs it: ``train-criteo`` measures it, and the serving
workloads serve the weights it produces.  With a :class:`SpanRecorder`
the run is traced: public functions of the ``data``, ``nn``, ``core`` and
``training`` layers are wrapped in-process for the duration of the call
and restored afterwards.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.core import retrain, search_optinter
from repro.core import search as search_module
from repro.core.combination import CombinationBlock
from repro.core.optinter import OptInterModel
from repro.data.dataset import CTRDataset
from repro.experiments import default_config, prepare_dataset
from repro.models.base import CrossEmbedding, FieldEmbedding
from repro.nn.layers import MLP
from repro.nn.module import Module
from repro.nn.optim import Adam, Optimizer
from repro.nn.sparse import SparseGrad
from repro.nn.tensor import Tensor
from repro.training import evaluate_model
from repro.training import trainer as trainer_module

from spans import Patches, SpanRecorder, wrap, wrap_generator

DATASET = "criteo"
SCALE = "paper"

#: Module classes whose forward is a layer; the forward of any other
#: module counts toward the nearest enclosing one of these.
FORWARD_LAYERS = {
    FieldEmbedding: "nn.fwd.embedding",
    CrossEmbedding: "nn.fwd.cross_embedding",
    MLP: "nn.fwd.mlp",
    OptInterModel: "core.fwd.model",
}

#: Layer names reported per stage, in breakdown order.
STAGE_LAYERS = ("data.batches", "nn.fwd.embedding", "nn.fwd.cross_embedding",
                "core.fwd.combination", "core.fwd.model", "nn.fwd.mlp",
                "nn.loss", "nn.backward", "nn.optim", "training.eval")


@dataclass
class StageResult:
    wall_s: float
    samples: int
    steps: int
    epochs: int
    layers: Dict[str, float] = field(default_factory=dict)
    cross_grad_rows_per_step: float = 0.0

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.wall_s


@dataclass
class PipelineResult:
    search: StageResult
    retrain: StageResult
    counts: list
    test_auc: float
    model: OptInterModel
    architecture: object

    @property
    def pipeline_s(self) -> float:
        return self.search.wall_s + self.retrain.wall_s


def config():
    return default_config(DATASET, SCALE)


def prepare():
    """The set-up ``train-criteo`` times: generate and split the data."""
    return prepare_dataset(config())


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[Dict[str, int]]:
    """Wrap the training layers' public functions while the block runs.

    Yields counters: ``steps`` and ``cross_rows`` (rows of the cross-table
    ``SparseGrad`` handed to the optimizer, summed over steps).
    """
    counters = {"steps": 0, "cross_rows": 0}
    cross_params: Set[int] = set()
    patches = Patches()
    module_call = Module.__call__

    def call(self, *args, **kwargs):
        name = FORWARD_LAYERS.get(type(self))
        if name is None:
            return module_call(self, *args, **kwargs)
        if name == "nn.fwd.cross_embedding":
            cross_params.add(id(self.table.weight))
        return recorder.call(name, module_call, (self,) + args, kwargs)

    adam_step = Adam.step

    def step(self):
        counters["steps"] += 1
        for group in self.param_groups:
            for param in group["params"]:
                if (id(param) in cross_params
                        and isinstance(param.grad, SparseGrad)):
                    counters["cross_rows"] += len(param.grad.indices)
        return recorder.call("nn.optim", adam_step, (self,), {})

    patches.set(Module, "__call__", call)
    patches.set(CombinationBlock, "combine",
                wrap(recorder, "core.fwd.combination",
                     CombinationBlock.combine))
    patches.set(CTRDataset, "iter_batches",
                wrap_generator(recorder, "data.batches",
                               CTRDataset.iter_batches))
    patches.set(Tensor, "backward",
                wrap(recorder, "nn.backward", Tensor.backward))
    patches.set(Adam, "step", step)
    patches.set(Optimizer, "zero_grad",
                wrap(recorder, "nn.optim", Optimizer.zero_grad))
    for module in (search_module, trainer_module):
        patches.set(module, "binary_cross_entropy_with_logits",
                    wrap(recorder, "nn.loss",
                         module.binary_cross_entropy_with_logits))
        patches.set(module, "evaluate_model",
                    wrap(recorder, "training.eval", module.evaluate_model,
                         opaque=True))
    try:
        yield counters
    finally:
        patches.restore()


def _stage(run, recorder: Optional[SpanRecorder]):
    """Run one stage; returns ``(output, wall_s, layers, counters)``."""
    if recorder is None:
        start = time.perf_counter()
        out = run()
        return out, time.perf_counter() - start, {}, None
    recorder.reset()
    with instrument(recorder) as counters:
        start = time.perf_counter()
        out = run()
        wall = time.perf_counter() - start
    return out, wall, recorder.totals(), counters


@contextmanager
def step_clock(times: List[float]) -> Iterator[None]:
    """Append the wall time of every training step to ``times``.

    A step runs from the moment a shuffled (training) ``iter_batches``
    hands over a batch to the moment the loop asks for the next one:
    forward, loss, backward and optimizer step.  Evaluation batches are
    not shuffled and not timed.
    """
    patches = Patches()
    iter_batches = CTRDataset.iter_batches

    def timed(self, *args, **kwargs):
        items = iter_batches(self, *args, **kwargs)
        if not kwargs.get("shuffle", len(args) > 1 and args[1]):
            yield from items
            return
        for item in items:
            handed = time.perf_counter()
            yield item
            times.append(time.perf_counter() - handed)

    patches.set(CTRDataset, "iter_batches", timed)
    try:
        yield
    finally:
        patches.restore()


def run(bundle, recorder: Optional[SpanRecorder] = None,
        step_times: Optional[List[float]] = None) -> PipelineResult:
    """Search, then retrain the architecture found, then score the test split.

    ``recorder`` traces the layers; ``step_times`` collects the wall time
    of every training step.
    """
    if step_times is not None:
        with step_clock(step_times):
            return run(bundle, recorder)
    cfg = config()
    n_train = len(bundle.train)
    found, search_s, search_layers, search_counts = _stage(
        lambda: search_optinter(bundle.train, bundle.val,
                                cfg.search_config()), recorder)
    (model, history), retrain_s, retrain_layers, retrain_counts = _stage(
        lambda: retrain(found.architecture, bundle.train, bundle.val,
                        cfg.retrain_config()), recorder)
    test_auc = float(evaluate_model(model, bundle.test)["auc"])

    def stage(wall, epochs, layers, counters) -> StageResult:
        steps = epochs * math.ceil(n_train / cfg.batch_size)
        result = StageResult(wall_s=wall, samples=epochs * n_train,
                             steps=steps, epochs=epochs, layers=layers)
        if counters is not None:
            if counters["steps"] != steps:
                raise RuntimeError(f"traced {counters['steps']} optimizer "
                                   f"steps, expected {steps}")
            result.cross_grad_rows_per_step = counters["cross_rows"] / steps
        return result

    return PipelineResult(
        search=stage(search_s, cfg.search_epochs, search_layers,
                     search_counts),
        retrain=stage(retrain_s, len(history), retrain_layers,
                      retrain_counts),
        counts=list(found.architecture.counts()),
        test_auc=test_auc, model=model, architecture=found.architecture)

"""Artificial-intelligence use case: quantized MLP inference.

Paper §V lists AI applications among the HLS use cases, and §II describes
the dataflow extension for ML apps with coarse-grained parallelism.  The
model here is an integer-quantized two-layer MLP; it exists as

* a monolithic HermesC kernel (classic single-FSM synthesis),
* a task-split HermesC module marked ``#pragma HLS dataflow`` (the
  dynamically controlled accelerator path, ref [14]),
* a NumPy reference for verification and accuracy checks.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

# Network geometry: 8 inputs -> 12 hidden (ReLU) -> 4 outputs (argmax).
N_IN = 8
N_HIDDEN = 12
N_OUT = 4
SHIFT = 6   # post-accumulation right shift (quantization rescale)


def make_weights(seed: int = 42) -> Tuple[np.ndarray, np.ndarray,
                                          np.ndarray, np.ndarray]:
    """Deterministic int8 weights/biases for the reference network."""
    rng = np.random.default_rng(seed)
    w1 = rng.integers(-64, 64, size=(N_HIDDEN, N_IN))
    b1 = rng.integers(-32, 32, size=N_HIDDEN)
    w2 = rng.integers(-64, 64, size=(N_OUT, N_HIDDEN))
    b2 = rng.integers(-32, 32, size=N_OUT)
    return w1, b1, w2, b2


def _array_literal(values) -> str:
    return "{" + ", ".join(str(int(v)) for v in np.asarray(values).flatten()) + "}"


def mlp_monolithic_source(seed: int = 42) -> str:
    """Single-function MLP kernel with weights baked into ROMs."""
    w1, b1, w2, b2 = make_weights(seed)
    return f"""
// Quantized MLP inference ({N_IN}-{N_HIDDEN}-{N_OUT}), monolithic form.
int mlp(const int *x) {{
  const int w1[{N_HIDDEN * N_IN}] = {_array_literal(w1)};
  const int b1[{N_HIDDEN}] = {_array_literal(b1)};
  const int w2[{N_OUT * N_HIDDEN}] = {_array_literal(w2)};
  const int b2[{N_OUT}] = {_array_literal(b2)};
  int hidden[{N_HIDDEN}];
  for (int j = 0; j < {N_HIDDEN}; j++) {{
    int acc = b1[j];
    for (int i = 0; i < {N_IN}; i++) {{
      acc += w1[j * {N_IN} + i] * x[i];
    }}
    acc = acc >> {SHIFT};
    hidden[j] = max(acc, 0);
  }}
  int best = -2147483647;
  int best_index = 0;
  for (int k = 0; k < {N_OUT}; k++) {{
    int acc = b2[k];
    for (int j = 0; j < {N_HIDDEN}; j++) {{
      acc += w2[k * {N_HIDDEN} + j] * hidden[j];
    }}
    acc = acc >> {SHIFT};
    if (acc > best) {{
      best = acc;
      best_index = k;
    }}
  }}
  return best_index;
}}
"""


def mlp_dataflow_source(seed: int = 42) -> str:
    """Task-split MLP: one task per layer, dataflow top function."""
    w1, b1, w2, b2 = make_weights(seed)
    return f"""
// Quantized MLP as a coarse-grained task pipeline (paper §II, ref [14]).
void layer1(const int *x, int *hidden) {{
  const int w1[{N_HIDDEN * N_IN}] = {_array_literal(w1)};
  const int b1[{N_HIDDEN}] = {_array_literal(b1)};
  for (int j = 0; j < {N_HIDDEN}; j++) {{
    int acc = b1[j];
    for (int i = 0; i < {N_IN}; i++) {{
      acc += w1[j * {N_IN} + i] * x[i];
    }}
    hidden[j] = acc >> {SHIFT};
  }}
}}
void relu(const int *hidden, int *activated) {{
  for (int j = 0; j < {N_HIDDEN}; j++) {{
    activated[j] = max(hidden[j], 0);
  }}
}}
void layer2(const int *activated, int *scores) {{
  const int w2[{N_OUT * N_HIDDEN}] = {_array_literal(w2)};
  const int b2[{N_OUT}] = {_array_literal(b2)};
  for (int k = 0; k < {N_OUT}; k++) {{
    int acc = b2[k];
    for (int j = 0; j < {N_HIDDEN}; j++) {{
      acc += w2[k * {N_HIDDEN} + j] * activated[j];
    }}
    scores[k] = acc >> {SHIFT};
  }}
}}
void argmax4(const int *scores, int *result) {{
  int best = -2147483647;
  int best_index = 0;
  for (int k = 0; k < {N_OUT}; k++) {{
    if (scores[k] > best) {{
      best = scores[k];
      best_index = k;
    }}
  }}
  result[0] = best_index;
}}
#pragma HLS dataflow
void mlp_pipeline(const int *x, int *result) {{
  int hidden[{N_HIDDEN}];
  int activated[{N_HIDDEN}];
  int scores[{N_OUT}];
  layer1(x, hidden);
  relu(hidden, activated);
  layer2(activated, scores);
  argmax4(scores, result);
}}
"""


def mlp_reference(x, seed: int = 42) -> int:
    """Bit-exact golden model of both C variants."""
    w1, b1, w2, b2 = make_weights(seed)
    x = np.asarray(x, dtype=np.int64)
    hidden = (w1 @ x + b1) >> SHIFT
    hidden = np.maximum(hidden, 0)
    scores = (w2 @ hidden + b2) >> SHIFT
    return int(np.argmax(scores))


def sample_inputs(count: int = 16, seed: int = 7) -> List[List[int]]:
    """Deterministic int8 input vectors."""
    rng = np.random.default_rng(seed)
    return [list(map(int, rng.integers(-128, 128, size=N_IN)))
            for _ in range(count)]

"""Frame logs: newline-delimited JSON, one record per particle per frame.

Record layout (fixed key order, shortest round-trip floats):

    {"t": 0.25, "id": 3, "x": [..3..], "orient": {"kind": "quat", "v": [..4..]}}

``kind`` is "quat" (4 components, w first) or "mat" (9 components, row
major). A run writes a sidecar ``<path>.meta.json`` capturing the parameters
and package version so a log can be interpreted on its own.
"""

import json
from dataclasses import dataclass

import numpy as np

ORIENT_KINDS = {"matrix": "mat", "quaternion": "quat"}
KIND_NAMES = {v: k for k, v in ORIENT_KINDS.items()}


@dataclass
class FrameWriter:
    """Appends particle states to an NDJSON log, flushing per frame."""

    path: str
    metadata: dict | None = None

    def __post_init__(self):
        self._fh = open(self.path, "w")
        if self.metadata is not None:
            with open(self.path + ".meta.json", "w") as mh:
                json.dump(self.metadata, mh, indent=2, sort_keys=True)
                mh.write("\n")

    def write_state(self, state):
        """Write one frame from a micro ParticleState."""
        self._fh.write(_format_frame(state.t, state.x, state.orient, state.kind))
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _format_frame(t, x, orient, kind):
    """One frame's records, each the bytes ``json.dumps`` writes for it.

    One %-template formats every record: ``%r`` of a float is the shortest
    round-trip repr that ``json.dumps`` writes, and the non-finite spellings
    are then rewritten to json's (NaN, Infinity).
    """
    values = np.concatenate([x, orient.reshape(x.shape[0], -1)], axis=1)
    template = (
        '{"t":' + json.dumps(t) + ',"id":%d,"x":[%r,%r,%r],'
        '"orient":{"kind":"' + ORIENT_KINDS[kind] + '","v":['
        + ",".join(["%r"] * (values.shape[1] - 3)) + "]}}\n"
    )
    text = "".join([template % (i, *row) for i, row in enumerate(values.tolist())])
    if not np.all(np.isfinite(values)):
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def iter_records(path):
    """Yield parsed records from an NDJSON frame log."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_frames(path):
    """Group a frame log by time.

    Returns:
        list of (t, x, orient, kind) with x shaped (N, 3) and orient shaped
        (N, 3, 3) or (N, 4); particles are ordered by id within each frame.
    """
    by_t = {}
    for rec in iter_records(path):
        by_t.setdefault(rec["t"], []).append(rec)
    frames = []
    for t in sorted(by_t):
        recs = sorted(by_t[t], key=lambda r: r["id"])
        kind = KIND_NAMES[recs[0]["orient"]["kind"]]
        x = np.array([r["x"] for r in recs])
        v = np.array([r["orient"]["v"] for r in recs])
        orient = v.reshape(-1, 3, 3) if kind == "matrix" else v
        frames.append((t, x, orient, kind))
    return frames


def read_metadata(path):
    with open(path + ".meta.json") as fh:
        return json.load(fh)

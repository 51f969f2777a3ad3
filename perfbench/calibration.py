"""Reference kernel that measures how fast the host is running right now.

The 2-core host this benchmark was built on changes speed by 15-30 % over
tens of seconds. The cause lies outside the benchmark process, and CPU time
moves with wall time. Median over passes cannot remove a shift that lasts a
whole run. So every run times this fixed kernel every half second between
scenarios, and before each set-up probe, and scales its times by
``REFERENCE_S / kernel seconds``.
The kernel touches no dexo code: Ed25519 signing and verification from
``cryptography`` and numpy gathers over a GF(256)-sized product table. Of
the candidates tried (these two, small SHA-256 digests with dict updates,
small numpy interpolations, and allocation-heavy dict building), these two
tracked dexo's own slowdowns most closely.
"""

from __future__ import annotations

import time

import numpy as np
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# about the kernel's seconds on the 2-core build host;
# a time t measured while the kernel takes k seconds is reported as t * REFERENCE_S / k
REFERENCE_S = 0.03

# a 256 x 256 byte table, as GF(256) multiplication uses
_TABLE = (np.arange(65536, dtype=np.uint32) % 251).astype(np.uint8).reshape(256, 256)


def kernel_seconds() -> float:
    """Host seconds for one fixed slice of reference work (~30 ms here)."""
    start = time.perf_counter()
    key = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
    public = key.public_key()
    for i in range(60):
        message = i.to_bytes(4, "big") * 25
        public.verify(key.sign(message), message)
    row = np.frombuffer(bytes(range(256)), dtype=np.uint8)
    for i in range(40):
        row = _TABLE[row[:, None], row[None, :]][i] ^ np.uint8(i)
    return time.perf_counter() - start

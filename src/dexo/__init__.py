"""Desk-scale simulator of a decentralized, TEE-attested IoT data market.

The package is organized around six building blocks:

- ``dexo.crypto``: self-contained primitives (byte-wise Shamir sharing over
  GF(256), hash commitments, Merkle trees over ciphertext chunks, a
  deterministic keystream cipher, Ed25519 signatures).
- ``dexo.tee``: software stand-in for attested execution on provider devices.
- ``dexo.ledger``: in-process blockchain with the data-exchange contract,
  dispute handling, and a calibrated gas model.
- ``dexo.participants``: provider server, oracle nodes, and consumer state
  machines.
- ``dexo.netsim``: deterministic message-passing simulator with scriptable
  Byzantine adversaries.
- ``dexo.harness``: parameter sweeps, cost reports and the verbs behind the
  CLI (configs live in ``dexo.config``, the CLI in ``dexo.cli``).
"""

__version__ = "0.1.0"

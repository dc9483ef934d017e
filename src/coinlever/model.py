"""Transaction algebra: amounts, fee parameters, size/cost, validity, goodness.

All money values are integer satoshis; every conservation check is an exact
integer identity. A transaction's byte size follows the P2PKH accounting
(10 bytes overhead, 148 per input, 34 per output, 34 more if a change
output is present).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Sequence

# P2PKH byte accounting.
TX_OVERHEAD_BYTES = 10
INPUT_BYTES = 148
OUTPUT_BYTES = 34

# A dust-level output costs one input plus one output worth of bytes to spend.
DUST_BYTES = INPUT_BYTES + OUTPUT_BYTES

Amount = int


class NoGoodPrefix(LookupError):
    """No prefix of the pool admits a good zero-overpayment transaction."""


def tx_size(n_inputs: int, n_outputs: int, change_flag: int) -> int:
    """Byte size of a transaction with the given input/output counts.

    ``change_flag`` is 1 when a change output is present, else 0.
    """
    if n_inputs < 0 or n_outputs < 0:
        raise ValueError("input and output counts must be non-negative")
    if change_flag not in (0, 1):
        raise ValueError(f"change_flag must be 0 or 1, got {change_flag!r}")
    return (
        TX_OVERHEAD_BYTES
        + INPUT_BYTES * n_inputs
        + OUTPUT_BYTES * n_outputs
        + OUTPUT_BYTES * change_flag
    )


def dust_threshold(gamma: int) -> Amount:
    """Smallest economically sensible output value at fee rate ``gamma``."""
    if gamma < 0:
        raise ValueError("fee rate must be non-negative")
    return DUST_BYTES * gamma


@dataclass(frozen=True, slots=True)
class FeeParams:
    """Fee model: satoshi-per-byte rate plus the dust and make-change thresholds.

    ``dust`` defaults to 182 * gamma; ``make_change`` (the largest overpayment
    tolerated before change must be created) defaults to the dust threshold.
    Neither may be negative.
    """

    gamma: int
    dust: Amount | None = None
    make_change: Amount | None = None

    def __post_init__(self) -> None:
        for name in ("gamma", "dust", "make_change"):
            if getattr(self, name) is not None and getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.dust is None:
            object.__setattr__(self, "dust", dust_threshold(self.gamma))
        if self.make_change is None:
            object.__setattr__(self, "make_change", self.dust)


@dataclass(frozen=True, slots=True)
class Utxo:
    """A spendable output: opaque id plus a positive satoshi value."""

    id: str
    value: Amount

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"UTXO {self.id!r} must have positive value")


@dataclass(frozen=True, slots=True)
class PaymentRequest:
    """A payment to fund; lower ``urgency_rank`` means more urgent."""

    id: str
    value: Amount
    urgency_rank: int

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"payment {self.id!r} must have positive value")


def _neg_value(utxo: Utxo) -> Amount:
    return -utxo.value


@dataclass(frozen=True, slots=True)
class UtxoPool:
    """An immutable pool of UTXOs kept sorted by value, largest first.

    Equal values keep their insertion order, so pool evolution is fully
    deterministic. ``index`` maps each id to its value, so that updates find
    ids by dict lookups and ``bisect``, not by a scan; ``from_utxos`` builds
    it, and equality, hashing and repr leave it out.
    """

    utxos: tuple[Utxo, ...]
    index: dict[str, Amount] = field(compare=False, repr=False)

    @classmethod
    def from_utxos(cls, utxos: Iterable[Utxo]) -> "UtxoPool":
        ordered = tuple(sorted(utxos, key=attrgetter("value"), reverse=True))
        index = {u.id: u.value for u in ordered}
        if len(index) != len(ordered):
            seen: set[str] = set()
            for u in ordered:
                if u.id in seen:
                    raise ValueError(f"duplicate UTXO id {u.id!r}")
                seen.add(u.id)
        return cls(ordered, index)

    def __len__(self) -> int:
        return len(self.utxos)

    def __iter__(self):
        return iter(self.utxos)

    def values(self) -> tuple[Amount, ...]:
        return tuple(u.value for u in self.utxos)

    def total(self) -> Amount:
        return sum(u.value for u in self.utxos)

    def prefix(self, k: int) -> tuple[Utxo, ...]:
        if not 0 <= k <= len(self.utxos):
            raise ValueError(f"prefix length {k} out of range")
        return self.utxos[:k]

    def without(self, ids: Iterable[str]) -> "UtxoPool":
        """Pool with the given UTXOs removed; every id must be present."""
        wanted = set(ids)
        if missing := wanted.difference(self.index):
            raise KeyError(f"unknown UTXO ids: {sorted(missing)}")
        utxos, index, spent = self.utxos, self.index.copy(), []
        for uid in wanted:
            # Bisect to the UTXO's equal-value run, then walk the run.
            pos = bisect_left(utxos, -index.pop(uid), key=_neg_value)
            while utxos[pos].id != uid:
                pos += 1
            spent.append(pos)
        kept = list(utxos)
        for pos in sorted(spent, reverse=True):
            del kept[pos]
        return UtxoPool(tuple(kept), index)

    def with_utxo(self, utxo: Utxo) -> "UtxoPool":
        """Pool with ``utxo`` inserted at its sorted position (after equals)."""
        if utxo.id in self.index:
            raise ValueError(f"duplicate UTXO id {utxo.id!r}")
        pos = bisect_right(self.utxos, -utxo.value, key=_neg_value)
        index = self.index.copy()  # dict.copy stays fast after deletions; {**d} does not
        index[utxo.id] = utxo.value
        return UtxoPool(self.utxos[:pos] + (utxo,) + self.utxos[pos:], index)


@dataclass(frozen=True, slots=True)
class Transaction:
    """Inputs, funded payments, change amount, and overpayment amount."""

    inputs: tuple[Utxo, ...]
    payments: tuple[PaymentRequest, ...]
    change: Amount
    overpayment: Amount

    def __post_init__(self) -> None:
        if self.change < 0 or self.overpayment < 0:
            raise ValueError("change and overpayment must be non-negative")

    @property
    def input_total(self) -> Amount:
        return sum(u.value for u in self.inputs)

    @property
    def payment_total(self) -> Amount:
        return sum(p.value for p in self.payments)

    @property
    def has_change(self) -> bool:
        return self.change > 0

    @property
    def size_bytes(self) -> int:
        return tx_size(len(self.inputs), len(self.payments), 1 if self.has_change else 0)


def tx_cost(tx: Transaction, fees: FeeParams) -> Amount:
    """Total satoshi spent beyond the payments: fee plus overpayment."""
    return tx.size_bytes * fees.gamma + tx.overpayment


def is_valid(tx: Transaction, fees: FeeParams) -> bool:
    """Inputs cover payments plus fee, and the value balance is exact.

    Exactness means inputs = payments + change + overpayment + fee, with the
    fee computed from the transaction's own size.
    """
    fee = tx.size_bytes * fees.gamma
    covered = tx.input_total >= tx.payment_total + fee
    conserved = tx.input_total == tx.payment_total + tx.change + tx.overpayment + fee
    return covered and conserved


def is_good(tx: Transaction, fees: FeeParams) -> bool:
    """Valid, and either change-free with a small overpayment or overpayment-free
    with non-dust change."""
    if not is_valid(tx, fees):
        return False
    change_free_ok = tx.change == 0 and 0 <= tx.overpayment <= fees.make_change
    with_change_ok = tx.overpayment == 0 and tx.change >= fees.dust
    return change_free_ok or with_change_ok


def opt(pool: UtxoPool, payments: Sequence[PaymentRequest], fees: FeeParams) -> int:
    """Minimal number of largest-first UTXOs admitting a good zero-overpayment
    transaction for ``payments``.

    A prefix of length k qualifies if it matches the payments-plus-fee total
    exactly with no change, or if the with-change surplus is a usable change
    output (positive and at least the dust threshold). Prefixes whose surplus
    falls in the dust gap do not qualify and the scan continues.

    Raises NoGoodPrefix when no prefix of the pool qualifies.
    """
    if not payments:
        raise ValueError("payments must be non-empty")
    payment_total = sum(p.value for p in payments)
    n_outputs = len(payments)
    running = 0
    for k, utxo in enumerate(pool, start=1):
        running += utxo.value
        exact_surplus = running - payment_total - tx_size(k, n_outputs, 0) * fees.gamma
        if exact_surplus == 0:
            return k
        change = running - payment_total - tx_size(k, n_outputs, 1) * fees.gamma
        if change > 0 and change >= fees.dust:
            return k
    raise NoGoodPrefix(
        f"no good zero-overpayment prefix in a pool of {len(pool)} UTXOs "
        f"for {n_outputs} payment(s) totalling {payment_total}"
    )

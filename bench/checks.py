"""Output checks on every step, written without ``coinlever.model``.

Each check restates the protocol's arithmetic from scratch: P2PKH sizes,
fee = size * gamma, exact value conservation, the goodness rule, pool
membership of every spent input, the leverage bridge, the record's cost,
and the pool and backlog update. ``check_step`` returns the list of
problems found; an empty list means the step passed.
"""

from __future__ import annotations

TX_OVERHEAD, PER_INPUT, PER_OUTPUT = 10, 148, 34


def tx_size(n_inputs: int, n_outputs: int, has_change: bool) -> int:
    return TX_OVERHEAD + PER_INPUT * n_inputs + PER_OUTPUT * (n_outputs + has_change)


def _tx_problems(tx, gamma: int, dust: int, make_change: int) -> list[str]:
    problems = []
    size = tx_size(len(tx.inputs), len(tx.payments), tx.change > 0)
    fee = size * gamma
    spent = sum(u.value for u in tx.inputs)
    paid = sum(p.value for p in tx.payments)
    if tx.change < 0 or tx.overpayment < 0:
        problems.append("negative change or overpayment")
    if spent != paid + tx.change + tx.overpayment + fee:
        problems.append(
            f"value not conserved: in {spent} != pay {paid} + change {tx.change}"
            f" + over {tx.overpayment} + fee {fee}"
        )
    change_free = tx.change == 0 and 0 <= tx.overpayment <= make_change
    with_change = tx.overpayment == 0 and tx.change >= dust
    if not (change_free or with_change):
        problems.append(f"not good: change {tx.change}, overpayment {tx.overpayment}")
    return problems


def record_cost(record, gamma: int) -> int:
    """Fee plus overpayment over the record's transactions, recomputed."""
    return sum(
        tx_size(len(tx.inputs), len(tx.payments), tx.change > 0) * gamma + tx.overpayment
        for tx in record.transactions
    )


def check_step(state, after, record, batch_size, fees, *_) -> list[str]:
    """Problems with one completed step, given the world states around it
    and the arguments ``orchestrator.step`` received after the state."""
    gamma = fees.gamma
    dust = 182 * gamma
    make_change = dust
    problems = []
    if (fees.dust, fees.make_change) != (dust, make_change):
        problems.append(f"fee thresholds {fees.dust}/{fees.make_change} != {dust}/{make_change}")
    if record.iteration != state.iteration + 1:
        problems.append(f"iteration {record.iteration} after {state.iteration}")

    txs = record.transactions
    for tx in txs:
        problems += _tx_problems(tx, gamma, dust, make_change)
    if record.cost != record_cost(record, gamma):
        problems.append(f"record cost {record.cost} != {record_cost(record, gamma)}")

    pool = {u.id: u.value for u in state.utxo_pool}
    pool_inputs = list(txs[0].inputs)
    if len(txs) == 2:
        bridge, *rest = txs[1].inputs
        if txs[0].change <= 0 or bridge.value != txs[0].change:
            problems.append(f"bridge {bridge.value} != tx1 change {txs[0].change}")
        if bridge.id in pool:
            problems.append(f"bridge id {bridge.id} is a pool UTXO")
        pool_inputs += rest
    elif len(txs) != 1:
        problems.append(f"{len(txs)} transactions in one step")
    spent_ids = [u.id for u in pool_inputs]
    spent_set = set(spent_ids)
    if len(spent_set) != len(spent_ids):
        problems.append("an input is spent twice")
    for u in pool_inputs:
        if pool.get(u.id) != u.value:
            problems.append(f"input {u.id}={u.value} not in the pool at this step")
    if sorted(record.spent_utxo_ids) != sorted(spent_ids):
        problems.append("spent_utxo_ids differ from the transactions' pool inputs")

    batch_ids = [p.id for p in state.pending[:batch_size]]
    if [p.id for p in txs[0].payments] != batch_ids:
        problems.append("first transaction does not fund the most urgent batch")
    funded = [p.id for tx in txs for p in tx.payments]
    pending_ids = {p.id for p in state.pending}
    funded_set = set(funded)
    if len(funded_set) != len(funded) or not funded_set <= pending_ids:
        problems.append("funded payments are not distinct pending requests")

    expected = {k: v for k, v in pool.items() if k not in spent_set}
    if len(txs) == 1 and txs[0].change > 0:
        change = record.change_utxo
        if change is None or change.value != txs[0].change or change.id in pool:
            problems.append("fallback change did not re-enter the pool")
        else:
            expected[change.id] = change.value
    elif record.change_utxo is not None:
        problems.append("change UTXO without a single change-making transaction")
    if {u.id: u.value for u in after.utxo_pool} != expected:
        problems.append("pool after the step != pool - spent + change")
    left = [p.id for p in state.pending if p.id not in funded_set]
    if [p.id for p in after.pending] != left:
        problems.append("pending after the step != pending - funded")
    return problems

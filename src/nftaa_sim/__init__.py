"""Deterministic ledger simulator for NFT-bound proxy accounts.

Two account styles share one world: proxy accounts atomically bound to a
single NFT (mint, owner-gated execution, guarded withdrawal, staking), and
registry-created token-bound accounts kept faithful to their known hazards so
the two can be compared differentially. A scenario CLI replays scripted
operation sequences and reports event logs, state digests, and withdrawal
queue timings.
"""

from .addresses import (
    Address,
    ZERO_ADDRESS,
    contract_address,
    deterministic_address,
    eoa_address,
    salt_from_int,
)
from .errors import ErrorCode, LedgerError
from .events import Event, EventKind
from .ledger import Account, CodeId, Ledger, TxReceipt, WorldState
from .ops import (
    CreateTba,
    Fail,
    MintNftaa,
    MintToken,
    ProxyExecute,
    ProxyPayload,
    TbaExecute,
    TransferToken,
    TransferValue,
    UpgradeAccount,
    WithdrawAssets,
)
from .staking import (
    BLOCKS_PER_DAY,
    ETH,
    MIN_STAKE,
    PER_BLOCK_CAP,
    DrainEstimate,
    DrainTrace,
    QueueConfig,
    StakePosition,
    WithdrawalQueue,
    estimate_drain_time,
    simulate_drain,
    simulate_saturated_days,
)
from .runner import (
    DiffResult,
    RunReport,
    ScenarioRunner,
    run_differential,
    run_scenario,
)
from .scenario import (
    ScenarioParseError,
    ScenarioScript,
    Step,
    parse_amount,
    parse_scenario,
    serialize_scenario,
)
from .tba import TbaRecord, TbaRegistry, detect_locked_nfts, detect_stranded_tbas
from .tokens import NOTE_MAX_LEN, NftCollection, NftRecord

__all__ = [
    "Account",
    "Address",
    "BLOCKS_PER_DAY",
    "CodeId",
    "CreateTba",
    "DiffResult",
    "DrainEstimate",
    "DrainTrace",
    "ETH",
    "ErrorCode",
    "Event",
    "EventKind",
    "Fail",
    "Ledger",
    "LedgerError",
    "MIN_STAKE",
    "MintNftaa",
    "MintToken",
    "NOTE_MAX_LEN",
    "NftCollection",
    "NftRecord",
    "PER_BLOCK_CAP",
    "ProxyExecute",
    "ProxyPayload",
    "QueueConfig",
    "RunReport",
    "ScenarioParseError",
    "ScenarioRunner",
    "ScenarioScript",
    "StakePosition",
    "Step",
    "TbaExecute",
    "TbaRecord",
    "TbaRegistry",
    "TransferToken",
    "TransferValue",
    "TxReceipt",
    "UpgradeAccount",
    "WithdrawAssets",
    "WithdrawalQueue",
    "WorldState",
    "ZERO_ADDRESS",
    "contract_address",
    "detect_locked_nfts",
    "detect_stranded_tbas",
    "deterministic_address",
    "eoa_address",
    "estimate_drain_time",
    "parse_amount",
    "parse_scenario",
    "run_differential",
    "run_scenario",
    "salt_from_int",
    "serialize_scenario",
    "simulate_drain",
    "simulate_saturated_days",
]

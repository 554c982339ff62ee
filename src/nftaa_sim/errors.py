"""Error codes shared by every module and by scenario `expect_error` lines."""

from __future__ import annotations

from enum import Enum

from .events import hexed


class ErrorCode(str, Enum):
    # ledger
    DUPLICATE_LABEL = "DuplicateLabel"
    UNKNOWN_ACCOUNT = "UnknownAccount"
    INSUFFICIENT_BALANCE = "InsufficientBalance"
    CALLER_NOT_EOA = "CallerNotEoa"
    INJECTED_FAILURE = "InjectedFailure"
    NEGATIVE_AMOUNT = "NegativeAmount"
    # token standard
    UNKNOWN_TOKEN = "UnknownToken"
    NOT_OWNER = "NotOwner"
    # nftaa protocol
    EMPTY_NOTE = "EmptyNote"
    NOTE_TOO_LARGE = "NoteTooLarge"
    NOT_AN_NFTAA = "NotAnNftaa"
    NOT_NFT_OWNER = "NotNftOwner"
    FRAUD_GUARD = "FraudGuard"
    SELF_CUSTODY_HAZARD = "SelfCustodyHazard"
    VERSION_SKEW = "VersionSkew"
    # staking
    BELOW_MIN_STAKE = "BelowMinStake"
    ALREADY_STAKING = "AlreadyStaking"
    NO_POSITION = "NoPosition"
    ZERO_AMOUNT = "ZeroAmount"
    STILL_LOCKED = "StillLocked"
    # token-bound accounts
    ALREADY_DEPLOYED = "AlreadyDeployed"
    NOT_DEPLOYED = "NotDeployed"
    NO_EXECUTE = "NoExecute"
    # differential runner
    NOT_COMPARABLE = "NotComparable"

    def __str__(self) -> str:  # render as the bare code in reports
        return self.value


class LedgerError(Exception):
    """Raised by any operation that cannot commit; the enclosing transaction rolls back.

    Most are caught and reported by code alone, so the text is built when read;
    `detail` keeps the values as raised (an address as `bytes`, shown as hex)."""

    def __init__(self, code: ErrorCode, message: str = "", **detail: object):
        self.code, self.message, self.detail = code, message, detail

    def __str__(self) -> str:
        text = f"{self.code.value}: {self.message}" if self.message else self.code.value
        if self.detail:
            text += " (" + ", ".join(f"{k}={hexed(v)}" for k, v in self.detail.items()) + ")"
        return text

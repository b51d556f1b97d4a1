"""Radiation-hardening substrates: ECC, TMR, integrity checks, SEU
injection and qualification campaigns (paper §I hardening claims)."""

from .campaign import (
    Campaign,
    CampaignError,
    CampaignReport,
    CrossSection,
    FAILURE_OUTCOMES,
    InjectionResult,
    OUTCOMES,
    classify_result,
)
from .mitigation import (
    KNOWN_SCHEMES,
    MITIGATING_SCHEMES,
    mitigates_seu,
)
from .mega import (
    MegaCampaign,
    MegaReport,
    ShardRecord,
    merge_shard_records,
)
from .ecc import (
    DecodeResult,
    EccError,
    EccMemory,
    EccStats,
    codeword_bits,
    decode,
    encode,
)
from .edac import (
    IntegrityError,
    IntegrityMap,
    IntegrityViolation,
    Region,
    checksum_words,
    crc32,
)
from .scenarios import (
    beam_campaign,
    ecc_campaign,
    golden_pattern,
    memory_scenarios,
    raw_sram_campaign,
    tmr_campaign,
)
from .seu import (
    BitstreamTarget,
    EccMemoryTarget,
    SeuInjector,
    TmrMemoryTarget,
    Upset,
    WordMemoryTarget,
)
from .tmr import (
    TmrError,
    TmrMemory,
    TmrRegister,
    TmrStats,
    VoteResult,
    vote_bitwise,
    vote_words,
)

__all__ = [
    "Campaign", "CampaignError", "CampaignReport", "CrossSection",
    "FAILURE_OUTCOMES", "InjectionResult", "OUTCOMES", "classify_result",
    "MegaCampaign", "MegaReport", "ShardRecord",
    "merge_shard_records",
    "KNOWN_SCHEMES", "MITIGATING_SCHEMES", "mitigates_seu",
    "DecodeResult", "EccError", "EccMemory", "EccStats", "codeword_bits",
    "decode", "encode",
    "IntegrityError", "IntegrityMap", "IntegrityViolation", "Region",
    "checksum_words", "crc32",
    "beam_campaign", "ecc_campaign", "golden_pattern", "memory_scenarios",
    "raw_sram_campaign", "tmr_campaign",
    "BitstreamTarget", "EccMemoryTarget", "SeuInjector", "TmrMemoryTarget",
    "Upset", "WordMemoryTarget",
    "TmrError", "TmrMemory", "TmrRegister", "TmrStats", "VoteResult",
    "vote_bitwise", "vote_words",
]

//! The claim record and its store errors, shared by the striped store
//! ([`crate::ShardedLedgerStore`]), the write-ahead log, snapshots and
//! replication.
//!
//! Append-only: claims are never deleted (revocation flips status, appeals
//! pin it).

use irs_core::claim::Claim;

/// Errors from store operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// No record with that serial.
    UnknownRecord,
    /// Revocation signature invalid or epoch stale.
    BadSignature,
    /// Epoch mismatch (concurrent update or replay).
    StaleEpoch,
    /// Permanently revoked records cannot change status.
    Permanent,
    /// A replicated claim arrived for a serial that is already occupied
    /// (broken replication stream; never returned on the primary path).
    DuplicateSerial,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownRecord => write!(f, "unknown record"),
            StoreError::BadSignature => write!(f, "bad ownership signature"),
            StoreError::StaleEpoch => write!(f, "stale status epoch"),
            StoreError::Permanent => write!(f, "record permanently revoked"),
            StoreError::DuplicateSerial => write!(f, "duplicate serial in replication stream"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Whether a claim was made by the owner or custodially by an aggregator
/// (§3.2: "the aggregator can either reject the photo or claim it … in a
/// custodial role so that it can later be revoked").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClaimOrigin {
    /// Claimed by owner software.
    Owner,
    /// Claimed custodially by an aggregator.
    Custodial,
}

/// One stored record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredClaim {
    /// The protocol-visible claim.
    pub claim: Claim,
    /// Who claimed it.
    pub origin: ClaimOrigin,
}

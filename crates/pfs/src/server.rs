//! The stripe layout of a PVFS-like file-server set.
//!
//! The ANL storage fabric the paper ran against is an explicit set of
//! file servers (17 SAN racks x 8 servers = 136 servers, 4.3 PB) over
//! which a file is spread in round-robin stripes. [`StripedStore`] is
//! that layout: which server holds a byte is what the storage fault
//! model ([`crate::fault`]) needs to decide which reads a down server
//! takes with it.

/// A PVFS-like striped store: stripe `i` of a file lives on server
/// `i % servers`.
#[derive(Debug, Clone, Copy)]
pub struct StripedStore {
    /// Number of file servers (ANL BG/P: 17 SANs x 8 = 136).
    pub servers: usize,
    /// Stripe unit in bytes (PVFS default 64 KiB; ANL ran larger).
    pub stripe_unit: u64,
}

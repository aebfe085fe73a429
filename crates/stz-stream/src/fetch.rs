//! [`Fetch`] and [`EntrySel`] — what a read asks of one entry — and the
//! checks every transport runs on one before any payload byte moves.
//!
//! A fetch is served in three steps, each written once, here and in the
//! [`reader`](crate::reader): [`resolve_sel`] finds the entry's
//! [`EntryDesc`], [`validate_fetch`] checks the request against it, and
//! [`EntryReader::fetch_le`](crate::EntryReader::fetch_le) decodes the answer
//! into memory the caller hands over. The access layer's stores and the
//! STZP server all call these, so a malformed request is refused in the same
//! class with the same words whether the entry is resident, on disk or
//! behind a socket; each caller maps a [`Refusal`] onto its own taxonomy.

use crate::EntryDesc;
use std::fmt;
use stz_field::Region;

/// Which entry of a container a fetch addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntrySel {
    /// By position in the container index.
    Index(u32),
    /// By entry name.
    Name(String),
}

/// A typed read request — the one vocabulary every transport serves.
#[derive(Debug, Clone, PartialEq)]
pub enum Fetch {
    /// Full-resolution decode of the whole entry.
    Full,
    /// Preview through hierarchy level `k` (1 = coarsest). STZ entries
    /// only.
    Level(u8),
    /// Full-resolution decode of a region (half-open bounds). STZ entries
    /// read only the intersecting sections; foreign entries decode fully
    /// and crop.
    Region(Region),
    /// Preview through level `k`, produced by the *incremental* refinement
    /// path (one level at a time) instead of the direct preview decode.
    /// Byte-identical to [`Fetch::Level`] by construction; on the wire both
    /// travel as `FETCH_PROGRESSIVE`. STZ entries only.
    Progressive(u8),
    /// The compressed payload bytes of raw section `s`, undecoded.
    /// Section `0` — the whole payload — is the only index every
    /// transport can address today; other indices are `Unsupported`.
    RawSection(u32),
}

impl Fetch {
    /// Whether the fetched bytes are compressed payload (not decoded
    /// scalars).
    pub fn is_raw(&self) -> bool {
        matches!(self, Fetch::RawSection(_))
    }
}

/// A fetch refused before any payload byte moves, in one of the three
/// classes every transport maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// The selector names no entry.
    NotFound(String),
    /// The request is malformed for this entry: a region outside it, a zero
    /// preview level, a level beyond its hierarchy.
    BadRequest(String),
    /// The request is well formed but this entry cannot serve it: a preview
    /// of a foreign codec's entry, a raw section other than 0.
    Unsupported(String),
}

/// The message alone: each caller names the class in its own taxonomy.
impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (Refusal::NotFound(msg) | Refusal::BadRequest(msg) | Refusal::Unsupported(msg)) = self;
        f.write_str(msg)
    }
}

impl std::error::Error for Refusal {}

/// Resolve an [`EntrySel`] against an entry listing.
pub fn resolve_sel<'a>(descs: &'a [EntryDesc], sel: &EntrySel) -> Result<&'a EntryDesc, Refusal> {
    match sel {
        EntrySel::Index(i) => descs.get(*i as usize).ok_or_else(|| {
            Refusal::NotFound(format!("entry index {i} out of range ({} entries)", descs.len()))
        }),
        EntrySel::Name(name) => descs
            .iter()
            .find(|d| d.name == *name)
            .ok_or_else(|| Refusal::NotFound(format!("no entry named {name:?}"))),
    }
}

/// Check `fetch` against the entry it addresses. Allocates only to refuse.
pub fn validate_fetch(fetch: &Fetch, desc: &EntryDesc) -> Result<(), Refusal> {
    match fetch {
        Fetch::Full | Fetch::RawSection(0) => Ok(()),
        Fetch::Region(region) if !region.fits_in(desc.dims) => {
            Err(Refusal::BadRequest(format!("region {region:?} outside entry dims {}", desc.dims)))
        }
        Fetch::Region(_) => Ok(()),
        Fetch::Level(_) | Fetch::Progressive(_)
            if desc.codec_id != stz_backend::id::STZ || desc.levels == 0 =>
        {
            Err(Refusal::Unsupported(format!(
                "level previews require a native stz entry; entry {:?} uses codec {}",
                desc.name,
                codec_label(desc.codec_id)
            )))
        }
        Fetch::Level(0) | Fetch::Progressive(0) => {
            Err(Refusal::BadRequest("preview level must be ≥ 1".into()))
        }
        Fetch::Level(k) | Fetch::Progressive(k) if *k > desc.levels => Err(Refusal::BadRequest(
            format!("preview level {k} exceeds the entry's {} levels", desc.levels),
        )),
        Fetch::Level(_) | Fetch::Progressive(_) => Ok(()),
        Fetch::RawSection(s) => Err(Refusal::Unsupported(format!(
            "raw section {s}: only section 0 (the whole payload) is addressable today"
        ))),
    }
}

/// A codec's registry name (`"sz3"`), or `"id 9"` when this build does not
/// know the id.
pub(crate) fn codec_label(id: u8) -> String {
    match stz_backend::registry().by_id(id) {
        Some(c) => c.name().to_string(),
        None => format!("id {id}"),
    }
}

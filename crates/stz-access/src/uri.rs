//! Location strings: paths and `stz://` URIs, and the [`open_store`]
//! front door that turns either into a `Box<dyn Store>`.

use crate::error::{AccessError, Result};
use crate::remote::{list_containers, RemoteStore};
use crate::{ContainerDesc, FileStore, MemStore, Store};
use std::path::{Path, PathBuf};

/// A parsed archive location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// A local filesystem path: a `.stzc` container, a bare `.stz`
    /// archive, or a directory of containers.
    Path(PathBuf),
    /// An STZP server, optionally scoped to one hosted container.
    Remote {
        /// `host:port` of the server.
        addr: String,
        /// Hosted container name, when the URI carries a path component.
        container: Option<String>,
    },
}

impl Location {
    /// Parse a location string. Anything starting with `stz://` is a
    /// remote URI (`stz://host:port[/container]`); everything else is a
    /// filesystem path.
    pub fn parse(s: &str) -> Result<Location> {
        let Some(rest) = s.strip_prefix("stz://") else {
            if s.is_empty() {
                return Err(AccessError::bad_uri("empty location"));
            }
            return Ok(Location::Path(PathBuf::from(s)));
        };
        let (addr, container) = match rest.split_once('/') {
            Some((addr, container)) if !container.is_empty() => (addr, Some(container.to_string())),
            Some((addr, _)) => (addr, None),
            None => (rest, None),
        };
        if addr.is_empty() || !addr.contains(':') {
            return Err(AccessError::bad_uri(format!(
                "remote URI needs host:port, got {s:?} (want stz://host:port/container)"
            )));
        }
        Ok(Location::Remote { addr: addr.to_string(), container })
    }
}

/// Open the [`Store`] a location names:
///
/// * `stz://host:port/container` → [`RemoteStore`]
/// * a `.stzc` container file → [`FileStore`]
/// * a bare `.stz` archive file → single-entry [`MemStore`]
///
/// A remote URI without a container and a directory path are listable
/// ([`list_location`]) but not openable — a store is one container's worth
/// of entries.
pub fn open_store(location: &str) -> Result<Box<dyn Store>> {
    match Location::parse(location)? {
        Location::Remote { addr, container: Some(container) } => {
            Ok(Box::new(RemoteStore::connect(addr.as_str(), &container)?))
        }
        Location::Remote { addr, container: None } => Err(AccessError::bad_uri(format!(
            "stz://{addr} names a server; add the container (stz://{addr}/<name>, \
             see `list` for names)"
        ))),
        Location::Path(path) => {
            if path.is_dir() {
                return Err(AccessError::bad_uri(format!(
                    "{} is a directory; name a container inside it",
                    path.display()
                )));
            }
            if is_container_path(&path)? {
                Ok(Box::new(FileStore::open_path(&path)?))
            } else {
                Ok(Box::new(MemStore::open_path(&path)?))
            }
        }
    }
}

/// List the containers at a location: every `.stzc` under a directory, or
/// the hosted containers of a server. A single container/archive path
/// lists as one pseudo-container.
pub fn list_location(location: &str) -> Result<Vec<ContainerDesc>> {
    match Location::parse(location)? {
        Location::Remote { addr, container: None } => list_containers(addr.as_str()),
        Location::Remote { addr, container: Some(container) } => {
            let matched: Vec<ContainerDesc> = list_containers(addr.as_str())?
                .into_iter()
                .filter(|c| c.name == container)
                .collect();
            // A named-but-absent container is NotFound here exactly as it
            // is from open_store — the taxonomy must not depend on the
            // entry point.
            if matched.is_empty() {
                return Err(AccessError::not_found(format!(
                    "no hosted container named {container:?} on {addr}"
                )));
            }
            Ok(matched)
        }
        Location::Path(path) => {
            let scanning_dir = path.is_dir();
            let mut paths: Vec<PathBuf> = Vec::new();
            if scanning_dir {
                for entry in std::fs::read_dir(&path)? {
                    let p = entry?.path();
                    if p.extension().is_some_and(|e| e == "stzc") {
                        paths.push(p);
                    }
                }
                paths.sort();
            } else {
                paths.push(path);
            }
            let mut out = Vec::with_capacity(paths.len());
            for p in paths {
                let store = match open_store(&p.display().to_string()) {
                    Ok(store) => store,
                    // Directory scans skip unopenable containers with a
                    // warning — exactly what a server hosting the same
                    // directory does — so local and remote listings of one
                    // directory cannot diverge. A path named *directly*
                    // still propagates its real error.
                    Err(e) if scanning_dir => {
                        eprintln!("stz-access: skipping {}: {e}", p.display());
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                let name = p
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| p.display().to_string());
                out.push(ContainerDesc {
                    name,
                    entries: store.list()?.len() as u32,
                    bytes: std::fs::metadata(&p)?.len(),
                });
            }
            Ok(out)
        }
    }
}

/// Whether `path` holds an stz-stream container (vs. a bare archive) —
/// the one magic sniff `open_store` and the CLI's inspect fallback share.
pub fn is_container_path(path: &Path) -> Result<bool> {
    use std::io::Read;
    let mut prefix = [0u8; 4];
    let mut f = std::fs::File::open(path)?;
    match f.read_exact(&mut prefix) {
        Ok(()) => Ok(stz_stream::is_container_prefix(&prefix)),
        // Shorter than a magic: certainly not a container; let the
        // archive parser produce the real diagnostic.
        Err(_) => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_forms() {
        assert_eq!(Location::parse("a/b.stzc").unwrap(), Location::Path("a/b.stzc".into()));
        assert_eq!(
            Location::parse("stz://127.0.0.1:4815/steps").unwrap(),
            Location::Remote { addr: "127.0.0.1:4815".into(), container: Some("steps".into()) }
        );
        assert_eq!(
            Location::parse("stz://127.0.0.1:4815").unwrap(),
            Location::Remote { addr: "127.0.0.1:4815".into(), container: None }
        );
        assert_eq!(
            Location::parse("stz://h:1/").unwrap(),
            Location::Remote { addr: "h:1".into(), container: None }
        );
        assert!(Location::parse("stz://noport/steps").is_err());
        assert!(Location::parse("").is_err());
    }

    #[test]
    fn open_store_rejects_unopenable_locations() {
        assert!(matches!(open_store("stz://127.0.0.1:1"), Err(AccessError::BadUri(_))));
        let dir = std::env::temp_dir();
        assert!(matches!(open_store(&dir.display().to_string()), Err(AccessError::BadUri(_))));
    }
}

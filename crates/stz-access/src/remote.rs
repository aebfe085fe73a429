//! [`RemoteStore`] — the network store over an STZP server.

use crate::error::Result;
use crate::{ContainerDesc, Entry, EntryDesc, EntrySel, Fetch, FetchedField, Provenance, Store};
use std::net::ToSocketAddrs;
use std::sync::{Arc, Mutex};
use stz_serve::{Client, FetchReq, RequestKind};
use stz_stream::{resolve_sel, validate_fetch};

/// The network [`Store`]: one hosted container on an STZP server,
/// addressed as `stz://host:port/container`.
///
/// [`Fetch`] variants map 1:1 onto STZP frames (`FETCH_FULL`, `FETCH_ROI`,
/// `FETCH_PROGRESSIVE`, `FETCH_RAW_SECTION`), and the server runs the same
/// decode drivers as the local stores, so responses are byte-identical to
/// a local decode of the same container. The wrapped [`Client`] is
/// synchronous; the store and every entry it opens share one connection,
/// serialized by a mutex.
pub struct RemoteStore {
    client: Arc<Mutex<Client>>,
    addr: String,
    container: String,
    /// Entry descriptors, fetched once at connect time (one `INSPECT`
    /// round-trip) — hosted containers are opened once by the server and
    /// immutable thereafter, and pinning matches the `Entry` contract.
    /// [`RemoteStore::refresh`] re-fetches on demand.
    descs: Vec<EntryDesc>,
}

impl RemoteStore {
    /// Connect to `addr` and bind this store to one hosted `container`.
    /// The single connect-time `INSPECT` round-trip both verifies the
    /// container exists (a missing name is [`crate::AccessError::NotFound`]) and
    /// caches its entry descriptors, so `list`/`open` are free of network
    /// traffic.
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Display, container: &str) -> Result<Self> {
        let addr_label = addr.to_string();
        let mut client = Client::connect(addr)?;
        let descs = client.inspect(container)?;
        Ok(RemoteStore {
            client: Arc::new(Mutex::new(client)),
            addr: addr_label,
            container: container.to_string(),
            descs,
        })
    }

    /// Re-fetch the descriptor cache from the server (one `INSPECT`).
    pub fn refresh(&mut self) -> Result<()> {
        self.descs = with_client(&self.client, |c| c.inspect(&self.container))?;
        Ok(())
    }

    fn label(&self) -> String {
        format!("{}/{}", self.addr, self.container)
    }
}

/// Run one request against a shared client connection.
fn with_client<R>(client: &Mutex<Client>, f: impl FnOnce(&mut Client) -> R) -> R {
    let mut client = client.lock().unwrap_or_else(|p| p.into_inner());
    f(&mut client)
}

impl Store for RemoteStore {
    fn locate(&self) -> String {
        format!("stz://{}", self.label())
    }

    fn list(&self) -> Result<Vec<EntryDesc>> {
        Ok(self.descs.clone())
    }

    fn open(&self, sel: &EntrySel) -> Result<Box<dyn Entry>> {
        let desc = resolve_sel(&self.descs, sel)?.clone();
        Ok(Box::new(RemoteEntry {
            client: Arc::clone(&self.client),
            addr: self.addr.clone(),
            container: self.container.clone(),
            desc,
        }))
    }
}

/// One opened [`RemoteStore`] entry; shares the store's connection.
struct RemoteEntry {
    client: Arc<Mutex<Client>>,
    addr: String,
    container: String,
    desc: EntryDesc,
}

impl Entry for RemoteEntry {
    fn desc(&self) -> &EntryDesc {
        &self.desc
    }

    fn fetch(&self, fetch: &Fetch) -> Result<FetchedField> {
        validate_fetch(fetch, &self.desc)?;
        // Open a client-side trace root: the wrapped `Client` injects this
        // trace's id into the fetch frame, so the server's span tree
        // parents under the "roundtrip" span recorded here.
        let mut trace = stz_telemetry::trace::collector().start("client", "fetch", None);
        trace.attr("container", &self.container);
        trace.attr("entry", self.desc.index);
        let started = std::time::Instant::now();
        let result = {
            let mut roundtrip = stz_telemetry::trace::span("roundtrip");
            roundtrip.attr("addr", &self.addr);
            self.fetch_remote(fetch)
        };
        match &result {
            Ok(fetched) => crate::record_fetch(fetched, started),
            Err(_) => trace.set_error(),
        }
        result
    }
}

impl RemoteEntry {
    fn fetch_remote(&self, fetch: &Fetch) -> Result<FetchedField> {
        // Address by resolved index: the descriptor was pinned at open
        // time, so later renames cannot redirect the fetch.
        let entry = EntrySel::Index(self.desc.index);
        let kind = match fetch {
            Fetch::Full => RequestKind::Full,
            Fetch::Level(k) | Fetch::Progressive(k) => RequestKind::Level(*k),
            Fetch::Region(region) => RequestKind::roi(region),
            Fetch::RawSection(_) => RequestKind::Raw,
        };
        let (dims, type_tag, data) = if kind == RequestKind::Raw {
            let data = with_client(&self.client, |c| c.fetch_raw(&self.container, entry))?;
            (self.desc.dims, self.desc.type_tag, data)
        } else {
            let req = FetchReq { container: self.container.clone(), entry, kind, trace: None };
            let fetched = with_client(&self.client, |c| c.fetch(&req))?;
            (fetched.dims, fetched.type_tag, fetched.data)
        };
        let provenance = Provenance::Remote(format!("{}/{}", self.addr, self.container));
        let codec_id = self.desc.codec_id;
        Ok(FetchedField { fetch: fetch.clone(), dims, type_tag, codec_id, data, provenance })
    }
}

/// List the containers hosted by an STZP server.
pub fn list_containers(addr: impl ToSocketAddrs) -> Result<Vec<ContainerDesc>> {
    Ok(Client::connect(addr)?.list()?)
}

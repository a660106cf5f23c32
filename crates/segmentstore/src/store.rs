//! The segment store: hosts segment containers and serves the wire protocol
//! (§2.2).
//!
//! Segment stores are agnostic to streams — they only know segments. Each
//! request is routed to the owning container via the stateless uniform hash
//! over the segment's qualified name; a store that does not run that
//! container answers `WrongHost`, prompting the client to re-resolve the
//! endpoint through the controller.
//!
//! Every request, whether it arrives through [`SegmentStore::call`] or over
//! a connection, goes through one `dispatch`. It either answers at once or
//! hands back a deferred item: an append waiting to become durable (§4.1)
//! or a tail read parked until data arrives (§4.2). `call` waits on the
//! item itself; a connection passes it to a reply pump so the connection
//! keeps reading requests meanwhile.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use pravega_common::hashing::container_for_segment;
use pravega_common::id::{ContainerId, ScopedSegment, WriterId};
use pravega_common::wire::{
    connection_pair, Connection, Reply, ReplyEnvelope, Request, SegmentInfo, ServerEnd,
    SEND_QUEUE_DEPTH,
};
use pravega_sync::{rank, Mutex};

use crate::container::{AppendHandle, ContainerConfig, ReadResult, SegmentContainer, SegmentLoad};
use crate::error::SegmentError;

/// Configuration of a segment store instance.
#[derive(Debug, Clone)]
pub struct SegmentStoreConfig {
    /// Stable host identifier (registered in the cluster).
    pub host_id: String,
    /// Total containers in the cluster (the hash space).
    pub container_count: u32,
    /// Per-container tuning.
    pub container: ContainerConfig,
}

impl Default for SegmentStoreConfig {
    fn default() -> Self {
        Self {
            host_id: "segmentstore-0".into(),
            container_count: 4,
            container: ContainerConfig::default(),
        }
    }
}

/// Creates (starting/recovering) a container by id. The embedding layer
/// wires WAL logs and LTS in here.
pub type ContainerFactory =
    Arc<dyn Fn(ContainerId) -> Result<SegmentContainer, SegmentError> + Send + Sync>;

/// A segment store instance.
pub struct SegmentStore {
    config: SegmentStoreConfig,
    factory: ContainerFactory,
    containers: Mutex<HashMap<u32, Arc<SegmentContainer>>>,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("host", &self.config.host_id)
            .field("containers", &self.containers.lock().len())
            .finish()
    }
}

impl SegmentStore {
    /// Creates a store. No containers run until assigned.
    pub fn new(config: SegmentStoreConfig, factory: ContainerFactory) -> Arc<Self> {
        Arc::new(Self {
            config,
            factory,
            containers: Mutex::new(rank::SEGMENTSTORE_STORE, HashMap::new()),
        })
    }

    /// Host id of this instance.
    pub fn host_id(&self) -> &str {
        &self.config.host_id
    }

    /// Ids of containers currently running here.
    pub fn running_containers(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.containers.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Starts (recovering) a container on this store.
    ///
    /// # Errors
    ///
    /// Propagates recovery failures from the container factory.
    pub fn start_container(&self, id: u32) -> Result<(), SegmentError> {
        if self.containers.lock().contains_key(&id) {
            return Ok(());
        }
        let container = (self.factory)(ContainerId(id))?;
        self.containers.lock().insert(id, Arc::new(container));
        Ok(())
    }

    /// Stops a container (its WAL handle is released; a new owner can fence).
    pub fn stop_container(&self, id: u32) {
        // Remove under the lock, stop (which joins threads) outside it: the
        // guard from `lock().remove()` would otherwise live through the body.
        let container = self.containers.lock().remove(&id);
        if let Some(c) = container {
            c.stop();
        }
    }

    /// Reconciles the set of running containers with `assigned` (start the
    /// missing, stop the extra) — driven by the coordination assignment map
    /// when membership changes (§4.4).
    ///
    /// # Errors
    ///
    /// Propagates the first container start failure (remaining containers
    /// are still reconciled).
    pub fn reconcile_containers(&self, assigned: &[u32]) -> Result<(), SegmentError> {
        let current = self.running_containers();
        let mut first_error = None;
        for id in &current {
            if !assigned.contains(id) {
                self.stop_container(*id);
            }
        }
        for id in assigned {
            if let Err(e) = self.start_container(*id) {
                first_error.get_or_insert(e);
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The container that owns `segment`, if it runs here.
    fn container_for(&self, segment_name: &ScopedSegment) -> Option<Arc<SegmentContainer>> {
        let id = container_for_segment(segment_name, self.config.container_count);
        self.containers.lock().get(&id).cloned()
    }

    /// Direct access to a running container (embedding/test use).
    pub fn container(&self, id: u32) -> Option<Arc<SegmentContainer>> {
        self.containers.lock().get(&id).cloned()
    }

    /// Aggregated per-segment load across containers (auto-scaler feedback).
    pub fn load_report(&self) -> Vec<SegmentLoad> {
        let containers: Vec<Arc<SegmentContainer>> =
            self.containers.lock().values().cloned().collect();
        containers.iter().flat_map(|c| c.load_report()).collect()
    }

    /// Handles one request synchronously: appends wait for durability and
    /// tail reads for data. Each call is its own one-request connection, so
    /// a `SetupAppend` fences the writer's older sessions like any
    /// handshake.
    pub fn call(&self, request: Request) -> Reply {
        match dispatch(self, &mut HashMap::new(), request) {
            Dispatched::Ready(reply) => reply,
            Dispatched::Deferred(item) => item.wait_reply(),
        }
    }

    /// Opens an in-process connection to this store. Requests are processed
    /// in order; appends are pipelined (acknowledged asynchronously once
    /// durable) and blocking tail reads do not stall the connection. See
    /// `connection_loop` for the threads a connection runs.
    ///
    /// # Errors
    ///
    /// [`SegmentError::Internal`] if the connection-handler thread cannot
    /// be spawned.
    pub fn connect(self: &Arc<Self>) -> Result<Connection, SegmentError> {
        let (client, server) = connection_pair();
        let store = self.clone();
        std::thread::Builder::new()
            .name(format!("conn-{}", self.config.host_id))
            .spawn(move || connection_loop(store, server))
            .map_err(|e| SegmentError::Internal(format!("spawn connection handler: {e}")))?;
        Ok(client)
    }

    /// Stops all containers.
    pub fn shutdown(&self) {
        let ids = self.running_containers();
        for id in ids {
            self.stop_container(id);
        }
    }

    /// Abruptly crashes every container: no draining, no flushing, no
    /// checkpointing — in-flight operations fail without being applied.
    /// Returns the crashed containers' WAL handles ("zombie writers"): once
    /// a new owner fences those logs, appends through them must fail with
    /// [`pravega_wal::error::WalError::Fenced`].
    pub fn crash(&self) -> Vec<Arc<dyn pravega_wal::log::DurableDataLog>> {
        // Drain the map under the lock; crash (which joins threads) outside.
        let containers: Vec<Arc<SegmentContainer>> =
            self.containers.lock().drain().map(|(_, c)| c).collect();
        containers.iter().map(|c| c.crash()).collect()
    }
}

/// How long a `wait_for_data` read parks at the tail before it is answered
/// with an empty `at_tail` read.
const TAIL_READ_WAIT: Duration = Duration::from_secs(2);

/// Append sessions one connection holds, per writer and segment, from its
/// `SetupAppend` handshakes. Appends carry the session so a newer handshake
/// (the writer reconnected elsewhere) fences this connection's still-queued
/// blocks out instead of letting them race the resend.
type Sessions = HashMap<WriterId, HashMap<String, u64>>;

/// What [`dispatch`] made of a request.
enum Dispatched {
    /// The reply, known at once.
    Ready(Reply),
    /// Work whose reply has to wait.
    Deferred(Deferred),
}

/// A request whose reply is not known yet.
enum Deferred {
    /// An append on its way to durability.
    Append {
        writer_id: WriterId,
        last_event_number: i64,
        handle: AppendHandle,
    },
    /// A `wait_for_data` read, parked at the tail until data arrives.
    TailRead {
        container: Arc<SegmentContainer>,
        name: String,
        offset: u64,
        max_bytes: usize,
    },
}

impl Deferred {
    /// Blocks until the reply is known: the append is durable (or failed),
    /// or the tail read has data (or waited out [`TAIL_READ_WAIT`]).
    fn wait_reply(self) -> Reply {
        match self {
            Deferred::Append {
                writer_id,
                last_event_number,
                handle,
            } => match handle.wait() {
                Ok(outcome) => Reply::DataAppended {
                    writer_id,
                    last_event_number,
                    current_tail: outcome.tail,
                },
                Err(e) => error_reply(e),
            },
            Deferred::TailRead {
                container,
                name,
                offset,
                max_bytes,
            } => read_reply(container.read(&name, offset, max_bytes, Some(TAIL_READ_WAIT))),
        }
    }
}

fn error_reply(e: SegmentError) -> Reply {
    match e {
        SegmentError::NoSuchSegment => Reply::NoSuchSegment,
        SegmentError::SegmentExists => Reply::SegmentAlreadyExists,
        SegmentError::SegmentSealed => Reply::SegmentIsSealed,
        SegmentError::ConditionalCheckFailed { .. } | SegmentError::TableKeyBadVersion => {
            Reply::ConditionalCheckFailed
        }
        SegmentError::OffsetTruncated { start_offset } => Reply::OffsetTruncated { start_offset },
        SegmentError::WrongContainer => Reply::WrongHost,
        SegmentError::ContainerStopped => Reply::ContainerNotReady,
        SegmentError::WriterFenced => Reply::WriterFenced,
        other => Reply::InternalError(other.to_string()),
    }
}

fn read_reply(read: Result<ReadResult, SegmentError>) -> Reply {
    match read {
        Ok(r) => Reply::SegmentRead {
            offset: r.offset,
            data: r.data,
            end_of_segment: r.end_of_segment,
            at_tail: r.at_tail,
        },
        Err(e) => error_reply(e),
    }
}

/// Routes `request` to its container and runs it as far as it can go
/// without waiting: everything but appends and `wait_for_data` reads is
/// answered here, and those two come back [`Dispatched::Deferred`].
fn dispatch(store: &SegmentStore, sessions: &mut Sessions, request: Request) -> Dispatched {
    let Some(container) = store.container_for(request.segment()) else {
        return Dispatched::Ready(Reply::WrongHost);
    };
    let reply = match request {
        Request::CreateSegment { segment, is_table } => {
            match container.create_segment(&segment.qualified_name(), is_table) {
                Ok(()) => Reply::SegmentCreated,
                Err(e) => error_reply(e),
            }
        }
        Request::SetupAppend { writer_id, segment } => {
            let name = segment.qualified_name();
            match container.handshake(&name, writer_id) {
                Ok((last_event_number, session)) => {
                    sessions.entry(writer_id).or_default().insert(name, session);
                    Reply::AppendSetup { last_event_number }
                }
                Err(e) => error_reply(e),
            }
        }
        Request::AppendBlock {
            writer_id,
            segment,
            last_event_number,
            event_count,
            data,
            expected_offset,
        } => {
            let name = segment.qualified_name();
            let session = sessions
                .get(&writer_id)
                .and_then(|segments| segments.get(&name))
                .copied();
            let handle = container.append_sessioned(
                &name,
                data,
                writer_id,
                last_event_number,
                event_count,
                expected_offset,
                session,
            );
            return Dispatched::Deferred(Deferred::Append {
                writer_id,
                last_event_number,
                handle,
            });
        }
        Request::ReadSegment {
            segment,
            offset,
            max_bytes,
            wait_for_data,
        } => {
            let name = segment.qualified_name();
            let max_bytes = max_bytes as usize;
            if wait_for_data {
                return Dispatched::Deferred(Deferred::TailRead {
                    container,
                    name,
                    offset,
                    max_bytes,
                });
            }
            read_reply(container.read(&name, offset, max_bytes, None))
        }
        Request::GetSegmentInfo { segment } => {
            match container.get_info(&segment.qualified_name()) {
                Ok(info) => Reply::SegmentInfo(SegmentInfo {
                    segment,
                    length: info.length,
                    start_offset: info.start_offset,
                    sealed: info.sealed,
                    last_modified_nanos: info.last_modified_nanos,
                }),
                Err(e) => error_reply(e),
            }
        }
        Request::SealSegment { segment } => match container.seal(&segment.qualified_name()) {
            Ok(final_length) => Reply::SegmentSealed { final_length },
            Err(e) => error_reply(e),
        },
        Request::TruncateSegment { segment, offset } => {
            match container.truncate(&segment.qualified_name(), offset) {
                Ok(()) => Reply::SegmentTruncated,
                Err(e) => error_reply(e),
            }
        }
        Request::DeleteSegment { segment } => match container.delete(&segment.qualified_name()) {
            Ok(()) => Reply::SegmentDeleted,
            Err(e) => error_reply(e),
        },
        Request::GetWriterAttribute { segment, writer_id } => {
            match container.get_attribute(&segment.qualified_name(), writer_id) {
                Ok(last_event_number) => Reply::WriterAttribute { last_event_number },
                Err(e) => error_reply(e),
            }
        }
        Request::TableUpdate { segment, entries } => {
            let name = segment.qualified_name();
            // The wire carries table-segment creation implicitly: creating
            // table segments goes through CreateSegment on the container API
            // used by the embedding layer; here we only update.
            let converted = entries
                .into_iter()
                .map(|e| (e.key, e.value, e.expected_version))
                .collect();
            match container.table_update(&name, converted) {
                Ok(versions) => Reply::TableUpdated { versions },
                Err(e) => error_reply(e),
            }
        }
        Request::TableRemove { segment, keys } => {
            match container.table_remove(&segment.qualified_name(), keys) {
                Ok(()) => Reply::TableRemoved,
                Err(e) => error_reply(e),
            }
        }
        Request::TableGet { segment, keys } => {
            match container.table_get(&segment.qualified_name(), &keys) {
                Ok(values) => Reply::TableRead { values },
                Err(e) => error_reply(e),
            }
        }
        Request::TableIterate {
            segment,
            continuation,
            limit,
        } => {
            match container.table_iterate(&segment.qualified_name(), continuation, limit as usize) {
                Ok((entries, continuation)) => Reply::TableIterated {
                    entries,
                    continuation,
                },
                Err(e) => error_reply(e),
            }
        }
    };
    Dispatched::Ready(reply)
}

/// A deferred item tagged with the request id its reply answers.
type Pending = (u64, Deferred);

/// Starts the connection's one deferred-reply function on a thread named
/// `name`: it answers `items` in order, each once [`Deferred::wait_reply`]
/// returns, until the connection loop hangs up or the client goes away.
fn spawn_reply_pump(
    name: &str,
    server: &ServerEnd,
    items: Receiver<Pending>,
) -> std::io::Result<JoinHandle<()>> {
    let server = server.clone();
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            while let Ok((request_id, item)) = items.recv() {
                let reply = item.wait_reply();
                if server.send(ReplyEnvelope { request_id, reply }).is_err() {
                    break;
                }
            }
        })
}

/// Serves one connection, in-process or TCP. Requests are dispatched in
/// order on this thread; a deferred reply goes to a reply pump so the loop
/// keeps reading. Two pumps run per connection at most:
///
/// * `conn-ack-pump`, started with the connection, acknowledges appends in
///   order as they become durable — what lets a writer keep its batch in
///   flight on the wire while the server collects it (§4.1);
/// * `conn-tail-read`, started by the connection's first `wait_for_data`
///   read, answers tail reads in request order, each parked for at most
///   [`TAIL_READ_WAIT`]. Its own pump keeps a parked read from delaying an
///   append ack.
pub(crate) fn connection_loop(store: Arc<SegmentStore>, server: ServerEnd) {
    let (ack_tx, ack_rx) = unbounded::<Pending>();
    let Ok(ack_pump) = spawn_reply_pump("conn-ack-pump", &server, ack_rx) else {
        // No ack pump means no append can ever be acknowledged: refuse the
        // connection rather than hang clients.
        return;
    };
    let mut tail_reads: Option<(Sender<Pending>, JoinHandle<()>)> = None;
    let mut sessions = HashMap::new();

    while let Ok(envelope) = server.recv() {
        let request_id = envelope.request_id;
        let item = match dispatch(&store, &mut sessions, envelope.request) {
            Dispatched::Ready(reply) => {
                if server.send(ReplyEnvelope { request_id, reply }).is_err() {
                    break;
                }
                continue;
            }
            Dispatched::Deferred(item) => item,
        };
        let queued = match item {
            Deferred::Append { .. } => ack_tx.send((request_id, item)).is_ok(),
            Deferred::TailRead { .. } => {
                if tail_reads.is_none() {
                    let (tail_tx, tail_rx) = bounded::<Pending>(SEND_QUEUE_DEPTH);
                    tail_reads = spawn_reply_pump("conn-tail-read", &server, tail_rx)
                        .ok()
                        .map(|pump| (tail_tx, pump));
                }
                match &tail_reads {
                    Some((tail_tx, _)) => tail_tx.send((request_id, item)).is_ok(),
                    None => {
                        let reply = Reply::InternalError("cannot start the tail-read pump".into());
                        server.send(ReplyEnvelope { request_id, reply }).is_ok()
                    }
                }
            }
        };
        if !queued {
            break;
        }
    }
    drop(ack_tx);
    let _ = ack_pump.join();
    if let Some((tail_tx, tail_pump)) = tail_reads {
        drop(tail_tx);
        let _ = tail_pump.join();
    }
}

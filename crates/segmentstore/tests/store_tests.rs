//! Tests for the segment store layer: container hosting/reconciliation,
//! wire-protocol dispatch, and wrong-host routing (§2.2, §4.4).

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use pravega_common::clock::SystemClock;
use pravega_common::hashing::container_for_segment;
use pravega_common::id::{ScopedSegment, ScopedStream, SegmentId, WriterId};
use pravega_common::metrics::MetricsRegistry;
use pravega_common::tcp;
use pravega_common::wire::{
    Connection, Reply, ReplyEnvelope, Request, RequestEnvelope, TableUpdateEntry,
};
use pravega_lts::{
    ChunkedSegmentStorage, ChunkedStorageConfig, InMemoryChunkStorage, InMemoryMetadataStore,
};
use pravega_segmentstore::{
    ContainerConfig, SegmentContainer, SegmentStore, SegmentStoreConfig, TcpFrontend,
};
use pravega_wal::log::InMemoryLog;

fn new_store(container_count: u32) -> Arc<SegmentStore> {
    let lts = ChunkedSegmentStorage::new(
        Arc::new(InMemoryChunkStorage::new()),
        Arc::new(InMemoryMetadataStore::new()),
        ChunkedStorageConfig::default(),
    );
    SegmentStore::new(
        SegmentStoreConfig {
            host_id: "test-store".into(),
            container_count,
            container: ContainerConfig {
                max_batch_delay: Duration::from_millis(1),
                flush_interval: Duration::from_millis(5),
                ..ContainerConfig::default()
            },
        },
        Arc::new(move |id| {
            SegmentContainer::start(
                id,
                Arc::new(InMemoryLog::new()),
                lts.clone(),
                Arc::new(SystemClock::new()),
                ContainerConfig {
                    max_batch_delay: Duration::from_millis(1),
                    flush_interval: Duration::from_millis(5),
                    ..ContainerConfig::default()
                },
            )
        }),
    )
}

fn segment(name: &str) -> ScopedSegment {
    ScopedStream::new("s", name)
        .unwrap()
        .segment(SegmentId::new(0, 0))
}

#[test]
fn reconcile_starts_and_stops_containers() {
    let store = new_store(4);
    assert!(store.running_containers().is_empty());
    store.reconcile_containers(&[0, 2]).unwrap();
    assert_eq!(store.running_containers(), vec![0, 2]);
    store.reconcile_containers(&[1, 2]).unwrap();
    assert_eq!(store.running_containers(), vec![1, 2]);
    // Idempotent.
    store.reconcile_containers(&[1, 2]).unwrap();
    assert_eq!(store.running_containers(), vec![1, 2]);
    store.shutdown();
    assert!(store.running_containers().is_empty());
}

#[test]
fn requests_for_unowned_containers_get_wrong_host() {
    let store = new_store(4);
    let seg = segment("t");
    let owner = container_for_segment(&seg, 4);
    // Run every container EXCEPT the owner.
    let assigned: Vec<u32> = (0..4).filter(|c| *c != owner).collect();
    store.reconcile_containers(&assigned).unwrap();
    match store.call(Request::CreateSegment {
        segment: seg.clone(),
        is_table: false,
    }) {
        Reply::WrongHost => {}
        other => panic!("expected WrongHost, got {other:?}"),
    }
    // Now run the owner: the request succeeds.
    store.reconcile_containers(&[owner]).unwrap();
    match store.call(Request::CreateSegment {
        segment: seg,
        is_table: false,
    }) {
        Reply::SegmentCreated => {}
        other => panic!("expected created, got {other:?}"),
    }
    store.shutdown();
}

#[test]
fn wire_protocol_full_lifecycle_over_a_connection() {
    let store = new_store(2);
    store.reconcile_containers(&[0, 1]).unwrap();
    let conn = store.connect().unwrap();
    let seg = segment("wire");
    let writer = WriterId::random();

    // Create.
    assert!(matches!(
        conn.call(
            1,
            Request::CreateSegment {
                segment: seg.clone(),
                is_table: false
            }
        )
        .unwrap(),
        Reply::SegmentCreated
    ));
    // Handshake: fresh writer.
    match conn
        .call(
            2,
            Request::SetupAppend {
                writer_id: writer,
                segment: seg.clone(),
            },
        )
        .unwrap()
    {
        Reply::AppendSetup { last_event_number } => assert_eq!(last_event_number, -1),
        other => panic!("{other:?}"),
    }
    // Pipelined appends (fire all, then collect acks).
    for i in 0..5u64 {
        conn.send(RequestEnvelope {
            request_id: 10 + i,
            request: Request::AppendBlock {
                writer_id: writer,
                segment: seg.clone(),
                last_event_number: i as i64,
                event_count: 1,
                data: Bytes::from(format!("e{i}")),
                expected_offset: None,
            },
        })
        .unwrap();
    }
    let mut acked = 0;
    while acked < 5 {
        let env = conn.recv().unwrap();
        if let Reply::DataAppended { .. } = env.reply {
            acked += 1;
        }
    }
    // Read back.
    match conn
        .call(
            20,
            Request::ReadSegment {
                segment: seg.clone(),
                offset: 0,
                max_bytes: 100,
                wait_for_data: false,
            },
        )
        .unwrap()
    {
        Reply::SegmentRead { data, .. } => assert_eq!(data.as_ref(), b"e0e1e2e3e4"),
        other => panic!("{other:?}"),
    }
    // Seal, verify, truncate, info, delete.
    assert!(matches!(
        conn.call(
            21,
            Request::SealSegment {
                segment: seg.clone()
            }
        )
        .unwrap(),
        Reply::SegmentSealed { final_length: 10 }
    ));
    assert!(matches!(
        conn.call(
            22,
            Request::TruncateSegment {
                segment: seg.clone(),
                offset: 4
            }
        )
        .unwrap(),
        Reply::SegmentTruncated
    ));
    match conn
        .call(
            23,
            Request::GetSegmentInfo {
                segment: seg.clone(),
            },
        )
        .unwrap()
    {
        Reply::SegmentInfo(info) => {
            assert_eq!(info.length, 10);
            assert_eq!(info.start_offset, 4);
            assert!(info.sealed);
        }
        other => panic!("{other:?}"),
    }
    assert!(matches!(
        conn.call(
            24,
            Request::DeleteSegment {
                segment: seg.clone()
            }
        )
        .unwrap(),
        Reply::SegmentDeleted
    ));
    assert!(matches!(
        conn.call(25, Request::GetSegmentInfo { segment: seg })
            .unwrap(),
        Reply::NoSuchSegment
    ));
    store.shutdown();
}

#[test]
fn wire_table_operations() {
    let store = new_store(2);
    store.reconcile_containers(&[0, 1]).unwrap();
    let conn = store.connect().unwrap();
    let seg = segment("table");
    assert!(matches!(
        conn.call(
            1,
            Request::CreateSegment {
                segment: seg.clone(),
                is_table: true
            }
        )
        .unwrap(),
        Reply::SegmentCreated
    ));
    // Insert two keys atomically.
    let versions = match conn
        .call(
            2,
            Request::TableUpdate {
                segment: seg.clone(),
                entries: vec![
                    TableUpdateEntry {
                        key: Bytes::from_static(b"a"),
                        value: Bytes::from_static(b"1"),
                        expected_version: Some(-1),
                    },
                    TableUpdateEntry {
                        key: Bytes::from_static(b"b"),
                        value: Bytes::from_static(b"2"),
                        expected_version: Some(-1),
                    },
                ],
            },
        )
        .unwrap()
    {
        Reply::TableUpdated { versions } => versions,
        other => panic!("{other:?}"),
    };
    // Conditional failure.
    assert!(matches!(
        conn.call(
            3,
            Request::TableUpdate {
                segment: seg.clone(),
                entries: vec![TableUpdateEntry {
                    key: Bytes::from_static(b"a"),
                    value: Bytes::from_static(b"x"),
                    expected_version: Some(-1),
                }],
            },
        )
        .unwrap(),
        Reply::ConditionalCheckFailed
    ));
    // Point read + iterate.
    match conn
        .call(
            4,
            Request::TableGet {
                segment: seg.clone(),
                keys: vec![Bytes::from_static(b"a")],
            },
        )
        .unwrap()
    {
        Reply::TableRead { values } => {
            let (v, ver) = values[0].clone().unwrap();
            assert_eq!(v.as_ref(), b"1");
            assert_eq!(ver, versions[0]);
        }
        other => panic!("{other:?}"),
    }
    match conn
        .call(
            5,
            Request::TableIterate {
                segment: seg.clone(),
                continuation: None,
                limit: 10,
            },
        )
        .unwrap()
    {
        Reply::TableIterated {
            entries,
            continuation,
        } => {
            assert_eq!(entries.len(), 2);
            assert!(continuation.is_none());
        }
        other => panic!("{other:?}"),
    }
    // Remove.
    assert!(matches!(
        conn.call(
            6,
            Request::TableRemove {
                segment: seg.clone(),
                keys: vec![(Bytes::from_static(b"a"), None)],
            },
        )
        .unwrap(),
        Reply::TableRemoved
    ));
    store.shutdown();
}

fn create(conn: &Connection, request_id: u64, seg: &ScopedSegment) {
    let reply = conn
        .call(
            request_id,
            Request::CreateSegment {
                segment: seg.clone(),
                is_table: false,
            },
        )
        .unwrap();
    assert_eq!(reply, Reply::SegmentCreated);
}

fn send_tail_read(conn: &Connection, request_id: u64, seg: &ScopedSegment) {
    conn.send(RequestEnvelope {
        request_id,
        request: Request::ReadSegment {
            segment: seg.clone(),
            offset: 0,
            max_bytes: 100,
            wait_for_data: true,
        },
    })
    .unwrap();
}

fn send_append(conn: &Connection, request_id: u64, seg: &ScopedSegment, data: &'static [u8]) {
    conn.send(RequestEnvelope {
        request_id,
        request: Request::AppendBlock {
            writer_id: WriterId::random(),
            segment: seg.clone(),
            last_event_number: 0,
            event_count: 1,
            data: Bytes::from_static(data),
            expected_offset: None,
        },
    })
    .unwrap();
}

fn next_reply(conn: &Connection) -> ReplyEnvelope {
    conn.recv_timeout(Duration::from_secs(5))
        .unwrap()
        .expect("reply within timeout")
}

/// A tail read parked on one segment must not hold up an append ack for
/// another segment on the same connection: the ack arrives while the read
/// is still parked, and the read then completes with the data that wakes it.
fn parked_tail_read_does_not_delay_append_acks(conn: &Connection) {
    let parked = segment("tail");
    let other = segment("other");
    create(conn, 1, &parked);
    create(conn, 2, &other);
    send_tail_read(conn, 3, &parked);
    send_append(conn, 4, &other, b"elsewhere");
    let first = next_reply(conn);
    assert_eq!(first.request_id, 4, "append ack must overtake the read");
    assert!(matches!(first.reply, Reply::DataAppended { .. }));
    assert!(
        conn.try_recv().unwrap().is_none(),
        "the tail read must still be parked"
    );
    // Wake the parked read with an append on its own segment.
    send_append(conn, 5, &parked, b"wake");
    let mut got_read = false;
    let mut got_append = false;
    for _ in 0..2 {
        let env = next_reply(conn);
        match env.reply {
            Reply::SegmentRead { data, .. } => {
                assert_eq!(env.request_id, 3);
                assert_eq!(data.as_ref(), b"wake");
                got_read = true;
            }
            Reply::DataAppended { .. } => got_append = true,
            other => panic!("{other:?}"),
        }
    }
    assert!(got_read && got_append);
}

#[test]
fn tail_read_over_the_wire_does_not_block_the_connection() {
    let store = new_store(1);
    store.reconcile_containers(&[0]).unwrap();
    parked_tail_read_does_not_delay_append_acks(&store.connect().unwrap());

    // The same over a real socket, through the TCP frontend.
    let store = new_store(1);
    store.reconcile_containers(&[0]).unwrap();
    let frontend = TcpFrontend::start(store.clone(), &MetricsRegistry::new()).unwrap();
    parked_tail_read_does_not_delay_append_acks(&tcp::connect(frontend.local_addr()).unwrap());
    frontend.stop();
    store.shutdown();
}

/// Threads of this process whose name is `name` (Linux `comm`).
#[cfg(target_os = "linux")]
fn threads_named(name: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == name)
        .count()
}

/// Parked tail reads do not cost a thread each: 64 pipelined
/// `wait_for_data` reads on idle segments share one connection's tail-read
/// pump, and every one is answered once its segment gets data.
#[cfg(target_os = "linux")]
#[test]
fn pipelined_tail_reads_share_one_thread_per_connection() {
    const READS: u64 = 64;
    let store = new_store(1);
    store.reconcile_containers(&[0]).unwrap();
    let conn = store.connect().unwrap();
    let segments: Vec<ScopedSegment> = (0..READS).map(|i| segment(&format!("idle-{i}"))).collect();
    for (i, seg) in (0..).zip(&segments) {
        create(&conn, i, seg);
    }
    for (i, seg) in (0..).zip(&segments) {
        send_tail_read(&conn, 100 + i, seg);
    }
    // The connection handles requests in order, so once this reply is back
    // every read before it has been taken off the connection.
    let marker = conn
        .call(
            99,
            Request::GetSegmentInfo {
                segment: segments[0].clone(),
            },
        )
        .unwrap();
    assert!(matches!(marker, Reply::SegmentInfo(_)));
    assert!(
        conn.try_recv().unwrap().is_none(),
        "reads on idle segments must stay parked"
    );
    let tail_threads = threads_named("conn-tail-read");
    assert!(
        tail_threads < 8,
        "{tail_threads} conn-tail-read threads for {READS} parked reads on one connection"
    );
    for (i, seg) in (0..).zip(&segments) {
        send_append(&conn, 200 + i, seg, b"data");
    }
    let mut reads = 0;
    for _ in 0..2 * READS {
        let env = next_reply(&conn);
        match env.reply {
            Reply::SegmentRead { data, .. } => {
                assert!((100..100 + READS).contains(&env.request_id));
                assert_eq!(data.as_ref(), b"data");
                reads += 1;
            }
            Reply::DataAppended { .. } => {}
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(reads, READS);
    store.shutdown();
}

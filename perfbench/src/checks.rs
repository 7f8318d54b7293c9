//! Output checks. Each compares what the program produced against a
//! computation made apart from it (the benchmark's own inputs, a closed
//! form from the parameters) or against a property the method must have.
//! They are pure functions over outputs, so the tests below can show
//! that each one fails on a mutated output.

/// Destination bytes equal the bytes the benchmark generated.
pub fn bytes_equal(what: &str, want: &[u8], got: &[u8]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!(
            "{what}: read {} bytes, wrote {}",
            got.len(),
            want.len()
        ));
    }
    match want.iter().zip(got).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: byte {i} is {:#04x}, expected {:#04x}",
            got[i], want[i]
        )),
    }
}

/// A restored run's stats JSON is byte-identical to the uninterrupted
/// run's.
pub fn stats_identical(what: &str, reference: &str, restored: &str) -> Result<(), String> {
    if reference == restored {
        return Ok(());
    }
    let at = reference
        .bytes()
        .zip(restored.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(reference.len().min(restored.len()));
    let from = at.saturating_sub(40);
    let show = |s: &str| {
        s.get(from..(at + 40).min(s.len()))
            .unwrap_or("")
            .to_string()
    };
    Err(format!(
        "{what}: stats differ at byte {at}: reference …{}… restored …{}…",
        show(reference),
        show(restored)
    ))
}

/// One message the benchmark scheduled. Its id is its index in the
/// schedule and rides in the payload's first four bytes.
#[derive(Debug, Clone)]
pub struct ScheduledMsg {
    /// Sending node.
    pub src: u16,
    /// Receiving node.
    pub dst: u16,
    /// Sent at the network's High priority.
    pub high: bool,
    /// Virtual destination written into the message header.
    pub dest_word: u16,
    /// Payload (id first).
    pub payload: Vec<u8>,
}

/// A `Sent` event as the program recorded it.
#[derive(Debug, Clone, Copy)]
pub struct SentEvent {
    /// Simulated time, ns.
    pub at_ns: u64,
    /// Virtual destination.
    pub dest: u16,
    /// Payload bytes.
    pub bytes: u32,
}

/// A `Received` event as the program recorded it.
#[derive(Debug, Clone)]
pub struct ReceivedEvent {
    /// Simulated time, ns.
    pub at_ns: u64,
    /// Source node named by the receive slot.
    pub src: u16,
    /// Payload read out of the queue.
    pub data: Vec<u8>,
}

/// The latency of one delivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// `Received` time minus `Sent` time, simulated ns.
    pub latency_ns: u64,
    /// High-priority probe.
    pub high: bool,
}

/// Match every `Sent` event to its scheduled message (node `i`'s k-th
/// `Sent` is the k-th id of `send_order[i]`) and every `Received` event
/// to a message by the id in its payload. Fails unless every message was
/// sent as scheduled and arrived exactly once, at the right node, from
/// the right source, with its payload intact.
pub fn match_messages(
    msgs: &[ScheduledMsg],
    send_order: &[Vec<u32>],
    sent: &[Vec<SentEvent>],
    received: &[Vec<ReceivedEvent>],
) -> Result<Vec<Delivery>, String> {
    let mut sent_at = vec![u64::MAX; msgs.len()];
    for (node, (order, evs)) in send_order.iter().zip(sent).enumerate() {
        if order.len() != evs.len() {
            return Err(format!(
                "node {node}: {} Sent events for {} scheduled messages",
                evs.len(),
                order.len()
            ));
        }
        for (&id, ev) in order.iter().zip(evs) {
            let m = &msgs[id as usize];
            if ev.dest != m.dest_word || ev.bytes as usize != m.payload.len() {
                return Err(format!(
                    "node {node}: message {id} sent to {} with {} bytes, scheduled {} with {}",
                    ev.dest,
                    ev.bytes,
                    m.dest_word,
                    m.payload.len()
                ));
            }
            sent_at[id as usize] = ev.at_ns;
        }
    }
    let mut seen = vec![false; msgs.len()];
    let mut out = Vec::with_capacity(msgs.len());
    for (node, evs) in received.iter().enumerate() {
        for ev in evs {
            let id = ev
                .data
                .get(..4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
                .filter(|&id| id < msgs.len())
                .ok_or_else(|| format!("node {node}: payload without a valid message id"))?;
            let m = &msgs[id];
            if seen[id] {
                return Err(format!("node {node}: message {id} received twice"));
            }
            seen[id] = true;
            if m.dst as usize != node || m.src != ev.src {
                return Err(format!(
                    "message {id}: {} -> {node}, scheduled {} -> {}",
                    ev.src, m.src, m.dst
                ));
            }
            bytes_equal(&format!("message {id} payload"), &m.payload, &ev.data)?;
            let sent = sent_at[id];
            if sent == u64::MAX || ev.at_ns < sent {
                return Err(format!("message {id} received before it was sent"));
            }
            out.push(Delivery {
                latency_ns: ev.at_ns - sent,
                high: m.high,
            });
        }
    }
    if let Some(id) = seen.iter().position(|&s| !s) {
        return Err(format!(
            "message {id} ({} -> {}) never arrived ({} of {} delivered)",
            msgs[id].src,
            msgs[id].dst,
            out.len(),
            msgs.len()
        ));
    }
    Ok(out)
}

/// Figure 4's ordering: at every size, approach 3 (hardware block units)
/// beats approach 2 (sP-managed), which beats approach 1 (aP copies).
/// `bw[size][approach-1]`, MB/s over the notify window.
pub fn bandwidth_order(sizes: &[u32], bw: &[[f64; 5]]) -> Result<(), String> {
    for (size, b) in sizes.iter().zip(bw) {
        if !(b[2] > b[1] && b[1] > b[0]) {
            return Err(format!(
                "{size} B: expected A3 > A2 > A1, got {:.2} / {:.2} / {:.2} MB/s",
                b[2], b[1], b[0]
            ));
        }
    }
    Ok(())
}

/// Approach 3 at the top of the ladder streams at the closed-form link
/// ceiling `link · chunk / (chunk + 16)`, within `tol` (relative).
pub fn near_ceiling(a3_mb_s: f64, link_mb_s: f64, chunk: u32, tol: f64) -> Result<(), String> {
    let ceiling = link_mb_s * chunk as f64 / (chunk as f64 + 16.0);
    if (a3_mb_s - ceiling).abs() <= tol * ceiling {
        Ok(())
    } else {
        Err(format!(
            "A3 {a3_mb_s:.2} MB/s is not within {:.0}% of the {ceiling:.2} MB/s ceiling",
            tol * 100.0
        ))
    }
}

/// The optimistic approaches notify before approach 3 does.
/// `notify[size][approach-1]`, ns; only sizes of at least `from` bytes
/// are checked.
pub fn optimistic_first(nominal: &[u32], notify: &[[u64; 5]], from: u32) -> Result<(), String> {
    for (size, n) in nominal.iter().zip(notify) {
        if *size >= from && !(n[3] < n[2] && n[4] < n[2]) {
            return Err(format!(
                "{size} B: A4/A5 notify at {}/{} ns, not before A3 at {} ns",
                n[3], n[4], n[2]
            ));
        }
    }
    Ok(())
}

/// `a <= b`, named.
pub fn at_most(what: &str, a: f64, b: f64) -> Result<(), String> {
    if a <= b {
        Ok(())
    } else {
        Err(format!("{what}: {a} exceeds {b}"))
    }
}

/// `a == b`, named.
pub fn equal(what: &str, a: u64, b: u64) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: got {a}, expected {b}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipped_destination_byte_fails() {
        let want: Vec<u8> = (0..=255).collect();
        assert!(bytes_equal("dst", &want, &want).is_ok());
        let mut got = want.clone();
        got[77] ^= 0x01;
        let err = bytes_equal("dst", &want, &got).unwrap_err();
        assert!(err.contains("byte 77"), "{err}");
        assert!(bytes_equal("dst", &want, &want[1..]).is_err());
    }

    #[test]
    fn perturbed_restored_stats_byte_fails() {
        let reference = r#"{"sim_time_ns":1234,"run":{"node_ticks":99}}"#;
        assert!(stats_identical("restore", reference, reference).is_ok());
        let mut bytes = reference.as_bytes().to_vec();
        bytes[16] = b'9';
        let restored = String::from_utf8(bytes).unwrap();
        let err = stats_identical("restore", reference, &restored).unwrap_err();
        assert!(err.contains("byte 16"), "{err}");
        assert!(stats_identical("restore", reference, &reference[..20]).is_err());
    }

    /// Scheduled messages, send orders, `Sent` and `Received` events.
    type Exchange = (
        Vec<ScheduledMsg>,
        Vec<Vec<u32>>,
        Vec<Vec<SentEvent>>,
        Vec<Vec<ReceivedEvent>>,
    );

    /// Two nodes, each sending one Low message and one High probe to the
    /// other.
    fn exchange() -> Exchange {
        let mut msgs = Vec::new();
        let mut order = vec![Vec::new(), Vec::new()];
        let mut sent = vec![Vec::new(), Vec::new()];
        let mut received = vec![Vec::new(), Vec::new()];
        for src in 0..2u16 {
            for (k, high) in [false, true].into_iter().enumerate() {
                let id = msgs.len() as u32;
                let mut payload = id.to_le_bytes().to_vec();
                payload.extend_from_slice(&[src as u8 ^ 0x5A; 12]);
                let dst = 1 - src;
                let dest_word = if high { 0x300 + dst } else { dst };
                let t = 100 * id as u64 + k as u64;
                sent[src as usize].push(SentEvent {
                    at_ns: t,
                    dest: dest_word,
                    bytes: payload.len() as u32,
                });
                received[dst as usize].push(ReceivedEvent {
                    at_ns: t + 500 + 10 * id as u64,
                    src,
                    data: payload.clone(),
                });
                order[src as usize].push(id);
                msgs.push(ScheduledMsg {
                    src,
                    dst,
                    high,
                    dest_word,
                    payload,
                });
            }
        }
        (msgs, order, sent, received)
    }

    #[test]
    fn intact_exchange_matches() {
        let (msgs, order, sent, received) = exchange();
        let d = match_messages(&msgs, &order, &sent, &received).unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d[0].latency_ns, 520);
        assert!(d[3].high);
    }

    #[test]
    fn dropped_message_fails() {
        let (msgs, order, sent, mut received) = exchange();
        received[1].pop();
        let err = match_messages(&msgs, &order, &sent, &received).unwrap_err();
        assert!(err.contains("never arrived"), "{err}");
    }

    #[test]
    fn duplicated_message_fails() {
        let (msgs, order, sent, mut received) = exchange();
        let dup = received[0][0].clone();
        received[0].push(dup);
        let err = match_messages(&msgs, &order, &sent, &received).unwrap_err();
        assert!(err.contains("received twice"), "{err}");
    }

    #[test]
    fn corrupted_or_misrouted_message_fails() {
        let (msgs, order, sent, received) = exchange();
        let mut bad = received.clone();
        bad[0][1].data[9] ^= 0x80;
        assert!(match_messages(&msgs, &order, &sent, &bad).is_err());
        let mut moved = received.clone();
        let m = moved[0].remove(0);
        moved[1].push(m);
        assert!(match_messages(&msgs, &order, &sent, &moved).is_err());
        let mut unsent = sent.clone();
        unsent[0].pop();
        assert!(match_messages(&msgs, &order, &unsent, &received).is_err());
    }

    #[test]
    fn figure4_shape_checks_fail_on_broken_shapes() {
        let ok = [[36.0, 94.0, 128.0, 98.0, 98.0]];
        assert!(bandwidth_order(&[1 << 20], &ok).is_ok());
        let swapped = [[94.0, 36.0, 128.0, 98.0, 98.0]];
        assert!(bandwidth_order(&[1 << 20], &swapped).is_err());
        assert!(near_ceiling(128.0, 160.0, 64, 0.05).is_ok());
        assert!(near_ceiling(110.0, 160.0, 64, 0.05).is_err());
        let notify = [[9, 8, 7, 3, 3]];
        assert!(optimistic_first(&[8192], &notify, 8192).is_ok());
        let late = [[9, 8, 7, 7, 3]];
        assert!(optimistic_first(&[8192], &late, 8192).is_err());
        assert!(optimistic_first(&[4096], &late, 8192).is_ok());
    }
}

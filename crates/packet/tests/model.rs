//! [`ChainHeader`] against a `Vec<Hop>` model, and [`Bytes`] against a
//! `Vec<u8>` one.
//!
//! A chain keeps up to nine hops inline and spills a longer one into a
//! boxed array; where the hops live must not be observable. Every
//! length from 0 to 16 is built through `uniform`, `from_slice` and
//! `new`, then a random stream of `extend`, cursor advances, local and
//! remote rewrites, fabric-ingress localisation, `encode`→`decode`
//! round trips and clones drives the header and the model together.
//! After every step the two must agree on the hops, the cursor and
//! everything derived from them — `current`, `remaining`, `wire_bytes`,
//! the wire bytes themselves and `Debug` — and the header must equal
//! (`==`) a fresh one built from the model. Extending past nine hops
//! crosses the inline→spill boundary; a round trip of a spilled chain
//! whose pending hops fit inline crosses it back.
//!
//! `Bytes` stores its view bounds as `u32`: random nested `slice`s
//! (every range form), clones and derefs are checked against the
//! `Vec<u8>` slice they view.

use std::ops::Bound;

use bytes::Bytes;
use packet::chain::{ChainError, ChainHeader, EngineId, Hop, Slack};
use proptest::prelude::*;

/// The model: the hops and the cursor.
#[derive(Clone, Debug, PartialEq)]
struct Model {
    hops: Vec<Hop>,
    next: usize,
}

impl Model {
    fn pending(&self) -> &[Hop] {
        &self.hops[self.next..]
    }

    /// The wire encoding, written out from the format's definition.
    fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.pending().len() as u8, 0];
        for hop in self.pending() {
            let (engine, slack) = (hop.engine, hop.slack);
            out.extend_from_slice(&engine.0.to_be_bytes());
            out.extend_from_slice(&slack.0.to_be_bytes());
        }
        out
    }

    /// A header built from scratch to the model's state.
    fn build(&self) -> ChainHeader {
        let mut h = ChainHeader::from_slice(&self.hops).unwrap();
        for _ in 0..self.next {
            h.advance();
        }
        h
    }
}

/// Asserts that `h` is `m` through every read the header offers.
fn check(h: &ChainHeader, m: &Model, step: &str) {
    assert_eq!(h.hops(), &m.hops[..], "{step}: hops");
    assert_eq!(h.len(), m.hops.len(), "{step}: len");
    assert_eq!(h.is_empty(), m.hops.is_empty(), "{step}: is_empty");
    assert_eq!(h.current(), m.pending().first().copied(), "{step}: current");
    assert_eq!(h.remaining(), m.pending().len(), "{step}: remaining");
    assert_eq!(h.is_complete(), m.pending().is_empty(), "{step}: complete");
    assert_eq!(
        h.wire_bytes(),
        2 + 6 * m.pending().len(),
        "{step}: wire_bytes"
    );
    assert_eq!(h.encode(), m.encode(), "{step}: encode");
    assert_eq!(
        format!("{h:?}"),
        format!("ChainHeader {{ hops: {:?}, next: {} }}", m.hops, m.next),
        "{step}: Debug"
    );
    assert_eq!(*h, m.build(), "{step}: == a fresh header");
    assert_eq!(h.clone(), *h, "{step}: clone");
}

/// An engine address from a draw: a local tile, or a remote one on one
/// of four members so member rewrites find something.
fn engine(draw: u16) -> EngineId {
    let local = EngineId(draw % 6);
    if draw & 0x100 != 0 {
        EngineId::remote(usize::from(draw >> 9) % 4, local)
    } else {
        local
    }
}

fn hop(draw: u16, slack: u32) -> Hop {
    Hop {
        engine: engine(draw),
        slack: Slack(slack),
    }
}

/// Every length from 0 to 16, built the three ways, equal to the model
/// and to each other; 17 is refused by each.
#[test]
fn every_length_builds_alike() {
    for n in 0..=ChainHeader::MAX_HOPS + 1 {
        let hops: Vec<Hop> = (0..n as u16)
            .map(|i| hop(i * 37, u32::from(i) * 10))
            .collect();
        let engines: Vec<EngineId> = hops.iter().map(|h| h.engine).collect();
        let built = [
            ChainHeader::from_slice(&hops),
            ChainHeader::new(hops.clone()),
            ChainHeader::uniform(&engines, Slack(7)),
        ];
        if n > ChainHeader::MAX_HOPS {
            for b in built {
                assert_eq!(b, Err(ChainError::TooLong), "length {n}");
            }
            continue;
        }
        let [a, b, u] = built.map(Result::unwrap);
        let model = Model { hops, next: 0 };
        check(&a, &model, &format!("from_slice {n}"));
        check(&b, &model, &format!("new {n}"));
        let uniform = Model {
            hops: engines
                .iter()
                .map(|&engine| Hop {
                    engine,
                    slack: Slack(7),
                })
                .collect(),
            next: 0,
        };
        check(&u, &uniform, &format!("uniform {n}"));
    }
}

/// A spilled chain whose pending hops fit inline comes back inline from
/// the wire, and equals a chain that never spilled.
#[test]
fn round_trip_crosses_back_under_the_spill() {
    for n in 10..=ChainHeader::MAX_HOPS {
        let engines: Vec<EngineId> = (0..n as u16).map(EngineId).collect();
        let mut h = ChainHeader::uniform(&engines, Slack(3)).unwrap();
        for _ in 0..n - 9 {
            h.advance();
        }
        let (back, used) = ChainHeader::decode(&h.encode()).unwrap();
        assert_eq!(used, h.wire_bytes());
        let inline = ChainHeader::uniform(&engines[n - 9..], Slack(3)).unwrap();
        assert_eq!(back, inline, "length {n}");
        assert_eq!(format!("{back:?}"), format!("{inline:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn chain_header_matches_its_model(
        start in 0usize..=16,
        first in any::<u16>(),
        ops in collection::vec((0u8..8, any::<u16>(), any::<u16>(), 0usize..8), 0..48),
    ) {
        let hops: Vec<Hop> = (0..start as u16)
            .map(|i| hop(first.wrapping_add(i.wrapping_mul(101)), u32::from(i)))
            .collect();
        let mut h = ChainHeader::from_slice(&hops).unwrap();
        let mut m = Model { hops, next: 0 };
        check(&h, &m, "start");
        for (i, (op, a, b, k)) in ops.into_iter().enumerate() {
            let step = format!("op {i} ({op}, {a}, {b}, {k}) at {m:?}");
            match op {
                0 | 1 => {
                    let more: Vec<Hop> = (0..k as u16)
                        .map(|j| hop(a.wrapping_add(j.wrapping_mul(13)), u32::from(b) + u32::from(j)))
                        .collect();
                    let got = h.extend(&more);
                    if m.hops.len() + k > ChainHeader::MAX_HOPS {
                        prop_assert_eq!(got, Err(ChainError::TooLong), "{}", step);
                    } else {
                        prop_assert_eq!(got, Ok(()), "{}", step);
                        m.hops.extend(more);
                    }
                }
                2 => {
                    let got = h.advance();
                    m.next = (m.next + 1).min(m.hops.len());
                    prop_assert_eq!(got, m.pending().first().copied(), "{}", step);
                }
                3 => {
                    let (from, to) = (engine(a), engine(b));
                    let mut n = 0;
                    for hop in &mut m.hops[m.next..] {
                        if hop.engine == from {
                            hop.engine = to;
                            n += 1;
                        }
                    }
                    prop_assert_eq!(h.rewrite_pending(from, to), n, "{}", step);
                }
                4 => {
                    let (from, to) = (usize::from(a) % 4, usize::from(b) % 4);
                    let mut n = 0;
                    for hop in &mut m.hops[m.next..] {
                        if hop.engine.remote_nic() == Some(from) {
                            hop.engine = EngineId::remote(to, hop.engine.local_part());
                            n += 1;
                        }
                    }
                    prop_assert_eq!(h.rewrite_pending_nic(from, to), n, "{}", step);
                }
                5 => {
                    let to = engine(a);
                    let want = m.hops.get_mut(m.next).map(|hop| {
                        let old = hop.engine;
                        hop.engine = to;
                        old
                    });
                    prop_assert_eq!(h.localize_current(to), want, "{}", step);
                }
                6 => {
                    let bytes = h.encode();
                    let (back, used) = ChainHeader::decode(&bytes).unwrap();
                    prop_assert_eq!(used, bytes.len(), "{}", step);
                    h = back;
                    m = Model { hops: m.pending().to_vec(), next: 0 };
                }
                _ => h = h.clone(),
            }
            check(&h, &m, &step);
        }
    }

    #[test]
    fn bytes_views_match_their_model(
        len in 0usize..300,
        fill in any::<u8>(),
        cuts in collection::vec((0u8..4, 0u8..4, any::<u16>(), any::<u16>()), 0..12),
    ) {
        let model: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
        let mut b = Bytes::from(model.clone());
        let (mut lo, mut hi) = (0, len);
        for (shape_lo, shape_hi, x, y) in cuts {
            // A sub-range of the current view, in each of the forms
            // `RangeBounds` can take.
            let n = hi - lo;
            let begin = usize::from(x) % (n + 1);
            let end = begin + usize::from(y) % (n - begin + 1);
            let start_bound = match shape_lo {
                0 if begin == 0 => Bound::Unbounded,
                1 if begin > 0 => Bound::Excluded(begin - 1),
                _ => Bound::Included(begin),
            };
            let end_bound = match shape_hi {
                0 if end == n => Bound::Unbounded,
                1 if end > 0 => Bound::Included(end - 1),
                _ => Bound::Excluded(end),
            };
            let kept = b.clone();
            b = b.slice((start_bound, end_bound));
            (lo, hi) = (lo + begin, lo + end);
            prop_assert_eq!(&b[..], &model[lo..hi]);
            prop_assert_eq!(b.len(), hi - lo);
            prop_assert_eq!(b.is_empty(), lo == hi);
            prop_assert_eq!(b.to_vec(), model[lo..hi].to_vec());
            prop_assert!(b == model[lo..hi].to_vec());
            // Slicing shares, never disturbs, what it sliced.
            prop_assert_eq!(&kept[..], &model[lo - begin..lo - begin + n]);
            prop_assert_eq!(b.clone(), b.clone());
            prop_assert_eq!(b.as_ref(), &model[lo..hi]);
        }
    }
}

//! Model-based test of [`PagedMap`] against `BTreeMap`: random
//! `insert / remove / get_mut / retain / remap / clone-then-mutate`
//! sequences must leave the map equal to its model, iterate in strictly
//! increasing id order, never keep an empty page — and every clone taken
//! along the way must still equal the model *it* was taken with
//! (snapshot isolation: pages are shared between clones, so a mutation
//! that wrote through a shared page would show up here).

use gpar_graph::NodeId;
use gpar_serve::{PagedMap, PAGE_BITS};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Model = BTreeMap<u32, u64>;

fn assert_matches(map: &PagedMap<u64>, model: &Model, what: &str) {
    let got: Vec<(u32, u64)> = map.iter().map(|(id, v)| (id.0, *v)).collect();
    let want: Vec<(u32, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want, "{what}: contents");
    assert_eq!(map.len(), model.len(), "{what}: len");
    assert_eq!(map.is_empty(), model.is_empty(), "{what}: is_empty");
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "{what}: strictly id-ordered");
    let mut entries = 0;
    let mut last_page = None;
    for page in map.pages() {
        assert!(!page.is_empty(), "{what}: an empty page is absent, not allocated");
        let p = page[0].0 .0 >> PAGE_BITS;
        assert!(page.iter().all(|(id, _)| id.0 >> PAGE_BITS == p), "{what}: page owns one range");
        assert!(last_page < Some(p), "{what}: pages in range order, one per range");
        last_page = Some(p);
        entries += page.len();
    }
    assert_eq!(entries, model.len(), "{what}: pages cover every entry");
}

proptest! {
    #![proptest_config(ProptestConfig::env_or(256))]

    #[test]
    fn paged_map_behaves_like_btreemap(
        // Ids span a handful of pages, so ops collide on keys and pages
        // fill, empty and refill; (op, key, value) triples.
        ops in collection::vec((0u32..7, 0u32..400, 0u64..1_000_000), 1..120),
    ) {
        let mut map: PagedMap<u64> = PagedMap::new();
        let mut model = Model::new();
        let mut snapshots: Vec<(PagedMap<u64>, Model)> = Vec::new();
        for &(op, key, value) in &ops {
            let id = NodeId(key);
            match op {
                0 | 1 => prop_assert_eq!(map.insert(id, value), model.insert(key, value)),
                2 => prop_assert_eq!(map.remove(id), model.remove(&key)),
                3 => {
                    let slot = map.get_mut(id);
                    prop_assert_eq!(slot.as_deref().copied(), model.get(&key).copied());
                    if let Some(v) = slot {
                        *v = value;
                        model.insert(key, value);
                    }
                }
                4 => {
                    // Keep one residue class of the ids at or above `key`.
                    let keep = |k: u32, v: u64| k < key || (k as u64 + v + value) % 3 == 1;
                    let mut seen = Vec::new();
                    map.retain(|id, v| {
                        seen.push(id.0);
                        keep(id.0, *v)
                    });
                    let all: Vec<u32> = model.keys().copied().collect();
                    prop_assert_eq!(seen, all, "retain visits each entry once, in id order");
                    model.retain(|&k, v| keep(k, *v));
                }
                5 => {
                    // A compaction-shaped remap (monotone): the keys at or
                    // above `key` are renumbered densely from `key + shift`,
                    // moving entries across page boundaries.
                    let shift = (value % 130) as u32;
                    let rank: BTreeMap<u32, u32> = model
                        .range(key..)
                        .enumerate()
                        .map(|(i, (&k, _))| (k, key + shift + i as u32))
                        .collect();
                    let f = |k: u32| rank.get(&k).copied().unwrap_or(k);
                    map.remap(|id| NodeId(f(id.0)));
                    model = model.iter().map(|(&k, &v)| (f(k), v)).collect();
                }
                _ => snapshots.push((map.clone(), model.clone())),
            }
            prop_assert_eq!(map.get(id).copied(), model.get(&key).copied());
            prop_assert_eq!(map.contains(id), model.contains_key(&key));
        }
        assert_matches(&map, &model, "final map");
        for (i, (snap, snap_model)) in snapshots.iter().enumerate() {
            assert_matches(snap, snap_model, &format!("snapshot {i}"));
        }
    }
}

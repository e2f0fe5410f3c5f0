//! A small persistent sorted map keyed by node id: the container behind
//! the per-center state of a snapshot generation (the candidate index's
//! center set, the warm ledger's center → record table).
//!
//! The id space is cut into fixed ranges of `2^PAGE_BITS` ids; page `p`
//! owns the entries with `id >> PAGE_BITS == p` as one sorted
//! `(NodeId, V)` run behind an `Arc`. Cloning the map bumps one refcount
//! per non-empty page, and a mutation unshares (`Arc::make_mut`) **only
//! the page it lands in** — so a successor generation that re-evaluates a
//! few dozen centers copies a few dozen pages and shares every other one
//! with its predecessor, however large `L` is. A mutation that turns out
//! to be a no-op (absent key, entry already present) unshares nothing.

use gpar_graph::NodeId;
use std::sync::Arc;

/// log2 of the id range one page owns. Updates touch centers scattered
/// over the id space (about one touched center per page), so the volume
/// copied per write is `touched × page occupancy`: 64 ids keeps that far
/// below the evaluation work a touched center costs anyway, while the
/// page table (one pointer per 64 ids) stays cheap to clone.
pub const PAGE_BITS: u32 = 6;

type Page<V> = Vec<(NodeId, V)>;

#[inline]
fn page_of(id: NodeId) -> usize {
    (id.0 >> PAGE_BITS) as usize
}

/// See the module docs. Iteration is in id order.
#[derive(Debug, Clone)]
pub struct PagedMap<V> {
    /// `pages[p]`: the sorted entries of id range `p`; an empty range is
    /// `None`, never an allocated empty page.
    pages: Vec<Option<Arc<Page<V>>>>,
    len: usize,
}

impl<V> Default for PagedMap<V> {
    fn default() -> Self {
        Self { pages: Vec::new(), len: 0 }
    }
}

impl<V: Clone> PagedMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored under `id`.
    pub fn get(&self, id: NodeId) -> Option<&V> {
        let page = self.pages.get(page_of(id))?.as_ref()?;
        page.binary_search_by_key(&id, |e| e.0).ok().map(|i| &page[i].1)
    }

    /// Whether `id` is a key.
    pub fn contains(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Mutable access to the value under `id`, unsharing its page (and
    /// nothing when `id` is absent).
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut V> {
        let page = self.pages.get_mut(page_of(id))?.as_mut()?;
        let i = page.binary_search_by_key(&id, |e| e.0).ok()?;
        Some(&mut Arc::make_mut(page)[i].1)
    }

    /// Stores `value` under `id`, returning the value it replaces.
    pub fn insert(&mut self, id: NodeId, value: V) -> Option<V> {
        let p = page_of(id);
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        let page = Arc::make_mut(self.pages[p].get_or_insert_with(Default::default));
        match page.binary_search_by_key(&id, |e| e.0) {
            Ok(i) => Some(std::mem::replace(&mut page[i].1, value)),
            Err(i) => {
                page.insert(i, (id, value));
                self.len += 1;
                None
            }
        }
    }

    /// Removes and returns the value under `id` (unsharing nothing when
    /// absent).
    pub fn remove(&mut self, id: NodeId) -> Option<V> {
        let slot = self.pages.get_mut(page_of(id))?;
        let i = slot.as_ref()?.binary_search_by_key(&id, |e| e.0).ok()?;
        let page = Arc::make_mut(slot.as_mut().expect("probed above"));
        let (_, value) = page.remove(i);
        if page.is_empty() {
            *slot = None;
        }
        self.len -= 1;
        Some(value)
    }

    /// Entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> {
        self.pages().flatten().map(|(id, v)| (*id, v))
    }

    /// The non-empty pages in id order, each a sorted run — the unit for
    /// chunked scans.
    pub fn pages(&self) -> impl Iterator<Item = &[(NodeId, V)]> {
        self.pages.iter().flatten().map(|p| p.as_slice())
    }

    /// Drops every entry failing `keep` (called once per entry, in id
    /// order). Pages that lose nothing stay shared.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId, &V) -> bool) {
        for slot in &mut self.pages {
            let Some(page) = slot else { continue };
            let Some(first) = page.iter().position(|(id, v)| !keep(*id, v)) else { continue };
            let mut kept: Page<V> = page[..first].to_vec();
            kept.extend(page[first + 1..].iter().filter(|(id, v)| keep(*id, v)).cloned());
            self.len -= page.len() - kept.len();
            *slot = (!kept.is_empty()).then(|| Arc::new(kept));
        }
    }

    /// Re-keys every entry through `f` (a compaction's id remap). `f`
    /// must be injective on the present keys; a monotone `f` — what
    /// compaction produces — makes every re-insert an append.
    pub fn remap(&mut self, mut f: impl FnMut(NodeId) -> NodeId) {
        let old = std::mem::take(self);
        for page in old.pages.into_iter().flatten() {
            let page = Arc::try_unwrap(page).unwrap_or_else(|shared| (*shared).clone());
            for (id, value) in page {
                self.insert(f(id), value);
            }
        }
        assert_eq!(self.len, old.len, "remap must be injective");
    }

    /// `(shared, total)`: how many of this map's pages are the very
    /// allocation `other` holds for the same id range, out of this map's
    /// page count.
    #[cfg(test)]
    pub(crate) fn shared_pages(&self, other: &Self) -> (usize, usize) {
        let mut shared = 0;
        let mut total = 0;
        for (p, page) in self.pages.iter().enumerate() {
            let Some(page) = page else { continue };
            total += 1;
            if other.pages.get(p).and_then(Option::as_ref).is_some_and(|o| Arc::ptr_eq(page, o)) {
                shared += 1;
            }
        }
        (shared, total)
    }
}

impl<V: Clone> FromIterator<(NodeId, V)> for PagedMap<V> {
    fn from_iter<I: IntoIterator<Item = (NodeId, V)>>(iter: I) -> Self {
        let mut map = Self::new();
        for (id, value) in iter {
            map.insert(id, value);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(m: &PagedMap<u32>) -> Vec<u32> {
        m.iter().map(|(id, _)| id.0).collect()
    }

    #[test]
    fn mutations_unshare_only_their_page() {
        let base: PagedMap<u32> = (0..1000u32).map(|i| (NodeId(i * 3), i)).collect();
        let mut next = base.clone();
        assert_eq!(next.shared_pages(&base), (47, 47));
        *next.get_mut(NodeId(300)).unwrap() += 1;
        next.insert(NodeId(301), 7);
        assert_eq!(next.remove(NodeId(2997)), Some(999));
        assert_eq!(next.shared_pages(&base), (45, 47));
        // No-ops leave everything shared.
        let mut same = base.clone();
        assert!(same.get_mut(NodeId(1)).is_none());
        assert_eq!(same.remove(NodeId(1)), None);
        same.retain(|_, _| true);
        assert_eq!(same.shared_pages(&base), (47, 47));
        // The predecessor is untouched.
        assert_eq!(base.get(NodeId(300)), Some(&100));
        assert_eq!(base.len(), 1000);
        assert_eq!(next.len(), 1000);
    }

    #[test]
    fn emptied_pages_disappear_and_remap_rekeys() {
        let mut m: PagedMap<u32> = [0u32, 1, 64, 200].iter().map(|&i| (NodeId(i), i)).collect();
        assert_eq!(m.pages().count(), 3);
        m.remove(NodeId(64));
        assert_eq!(m.pages().count(), 2, "an emptied page is dropped, not kept allocated");
        m.retain(|id, _| id.0 != 200);
        assert_eq!(ids(&m), vec![0, 1]);
        assert_eq!(m.pages().count(), 1);
        let shared = m.clone();
        m.remap(|id| NodeId(id.0 + 100));
        assert_eq!(ids(&m), vec![100, 101]);
        assert_eq!(ids(&shared), vec![0, 1], "remap clones out of shared pages");
    }
}

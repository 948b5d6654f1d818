//! The content-addressed result cache.
//!
//! A job's result is a pure function of `(circuit, root seed, shots,
//! backend)` — the whole point of the engine's determinism contract —
//! so identical requests can be served from memory without touching a
//! simulator. The cache key addresses the *content*: the circuit is
//! canonicalized by re-exporting the parsed [`Circuit`] through
//! `to_qasm3` (so textual variants — whitespace, comments, parity-
//! temporary names — of the same circuit hit the same entry) and
//! fingerprinted with FNV-1a 64; the resolved backend name, shot
//! count, and root seed complete the key.
//!
//! Eviction is LRU over a fixed entry capacity, counted where it
//! happens (an insert or a disk hit's promotion to memory). Hit/miss
//! accounting is the owning backend's, read by `stats` and `metrics`.
//!
//! ## Disk spill
//!
//! With a [`DiskCacheConfig`], every completed result is also
//! persisted as one fingerprint-keyed JSON file, so a **restarted**
//! server answers previously-served requests from disk without
//! re-executing — warm state survives the process. The layout is
//! deliberately boring:
//!
//! ```text
//! <dir>/<fp:016x>-<backend>-<shots>-<seed>-<start>.json
//!   {"fingerprint":"9a…","backend":"statevector","shots":400,
//!    "root_seed":11,"start":0,"tallies":{"0":201,"3":199}}
//! ```
//!
//! * **Atomic write-then-rename**: an entry is written to a `.tmp-`
//!   sibling and `rename(2)`d into place, so a crash mid-write can
//!   never leave a half-entry under a live name.
//! * **Size-bounded**: total bytes are capped
//!   ([`DiskCacheConfig::max_bytes`]); LRU files are deleted to fit.
//! * **Corrupt-entry tolerance**: unparseable or truncated files (and
//!   stranded `.tmp-` files) are deleted and ignored at startup and on
//!   read — a damaged cache degrades to a miss, never a failure.
//! * The fingerprint is stored as a **hex string** because the wire's
//!   f64-backed JSON numbers are only exact to 2⁵³ and the fingerprint
//!   uses all 64 bits.
//!
//! Disk I/O is best-effort throughout: an unwritable directory turns
//! the spill off in effect (every read misses), it never fails a
//! request.
//!
//! Disk I/O happens outside the owner's lock, both ways. The memory
//! insert ([`ResultCache::insert_deferred`]) hands back the pending
//! [`Spill`], which the owner writes once its lock is dropped; a lookup
//! through the owner's lock ([`ResultCache::get_guarded`]) that misses
//! memory but finds the key on disk drops the lock, reads the file,
//! and promotes the result to memory under the lock again. The disk
//! index has a small lock of its own, held for index updates only, and
//! each writer uses its own temporary file, so two spills of one key
//! may race and still leave one valid file.
//!
//! A request reads the memory tier once, counted in `cache.probes`:
//! on the front end's reactor ([`crate::frontend::lookup`]), which
//! hands the submitter the **generation** it missed at. The generation
//! moves each time memory gains an entry (an insert or a promotion), so
//! while it has not moved the key is still absent, and the submitter's
//! guarded passes read memory only if it has. They consult the disk
//! index every time: a spill lands after its owner's lock is dropped.
//!
//! [`Circuit`]: circuit::circuit::Circuit

use engine::{Backend, Counts};
use jsonlite::Json;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// FNV-1a 64-bit fingerprint of the canonical circuit text.
///
/// Two requests whose canonical QASM collides under this hash (and
/// that match in backend/shots/seed) would share a cache entry; at 64
/// bits that is vanishingly unlikely for any realistic workload, and a
/// false hit is *detectable* (the served tallies would diverge from a
/// direct `Backend::sample_shots` call) rather than silent corruption
/// of the simulator state.
pub fn fingerprint(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The identity of a job: canonical-circuit fingerprint + resolved
/// backend + shot range + root seed. Equal keys ⇒ bit-identical
/// results, so this is also the coalescing key for concurrent identical
/// requests.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`fingerprint`] of the canonical (re-exported) QASM text.
    pub circuit_fp: u64,
    /// Resolved backend name (`Backend::name` after `Auto` routing, so
    /// `auto` requests share entries with their resolved twin).
    pub backend: &'static str,
    /// Shots executed (the length of the job's global shot range).
    pub shots: u64,
    /// Root seed of the deterministic RNG streams.
    pub root_seed: u64,
    /// First global shot index (the sharding extension's `shot_range`
    /// start; 0 for a full run — so a `shot_range: [0, n]` sub-request
    /// shares its entry with the plain `shots: n` request, which is the
    /// same work).
    pub start: u64,
}

impl CacheKey {
    /// The job's global shot indices, `start..start + shots`.
    pub fn range(&self) -> std::ops::Range<u64> {
        self.start..self.start + self.shots
    }
}

struct CacheEntry {
    counts: Counts,
    last_used: u64,
}

/// Where (and how large) the on-disk result cache may be. See the
/// module docs for the file layout and durability guarantees.
#[derive(Debug, Clone)]
pub struct DiskCacheConfig {
    /// Directory holding one JSON file per cached result (created if
    /// absent).
    pub dir: PathBuf,
    /// Total size bound in bytes; least-recently-used files are
    /// deleted to fit.
    pub max_bytes: u64,
}

impl DiskCacheConfig {
    /// A spill directory with the default 64 MiB size bound.
    pub fn new(dir: impl Into<PathBuf>) -> DiskCacheConfig {
        DiskCacheConfig {
            dir: dir.into(),
            max_bytes: 64 * 1024 * 1024,
        }
    }
}

struct DiskEntry {
    path: PathBuf,
    bytes: u64,
    last_used: u64,
}

/// The persistent tier: fingerprint-keyed files under one directory,
/// with an in-memory index rebuilt by scanning at startup.
struct DiskStore {
    config: DiskCacheConfig,
    index: HashMap<CacheKey, DiskEntry>,
    total_bytes: u64,
    tick: u64,
}

impl DiskStore {
    /// Opens (and scans) the spill directory. All I/O errors degrade
    /// to an empty (or smaller) index — a damaged cache is a cold
    /// cache, never a startup failure.
    fn open(config: DiskCacheConfig) -> DiskStore {
        let _ = std::fs::create_dir_all(&config.dir);
        let mut store = DiskStore {
            config,
            index: HashMap::new(),
            total_bytes: 0,
            tick: 0,
        };
        let Ok(dir) = std::fs::read_dir(&store.config.dir) else {
            return store;
        };
        // Recover recency from mtime (name as tie-break) so LRU
        // ordering survives restart approximately.
        let mut found: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
        for entry in dir.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(".tmp-") {
                // Stranded half-write from a crash: never live.
                let _ = std::fs::remove_file(&path);
                continue;
            }
            if !name.ends_with(".json") {
                continue;
            }
            let mtime = entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            found.push((mtime, path));
        }
        found.sort();
        for (_, path) in found {
            match std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| decode_entry(&text))
            {
                Some((key, _counts)) => {
                    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    store.tick += 1;
                    store.total_bytes += bytes;
                    store.index.insert(
                        key,
                        DiskEntry {
                            path,
                            bytes,
                            last_used: store.tick,
                        },
                    );
                }
                // Corrupt or truncated: delete and move on.
                None => {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        store.evict_to_fit();
        store
    }

    /// Persists `key`'s result via write-then-rename, then evicts LRU
    /// files until the size bound holds. The file is written with the
    /// index unlocked, under a temporary name of this call's own; a key
    /// already indexed (or indexed by a racing spill meanwhile — same
    /// key, same bytes) only has its recency bumped.
    fn store(disk: &Mutex<DiskStore>, key: &CacheKey, counts: &Counts) {
        let dir = {
            let mut store = lock_disk(disk);
            store.tick += 1;
            let tick = store.tick;
            if let Some(entry) = store.index.get_mut(key) {
                // Determinism: same key ⇒ same bytes; just bump recency.
                entry.last_used = tick;
                return;
            }
            store.config.dir.clone()
        };
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let name = file_name(key);
        let path = dir.join(&name);
        let tmp = dir.join(format!(
            ".tmp-{}-{}-{name}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let text = encode_entry(key, counts);
        let bytes = text.len() as u64;
        if std::fs::write(&tmp, &text).is_err() || std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        let mut store = lock_disk(disk);
        store.tick += 1;
        let tick = store.tick;
        if let Some(entry) = store.index.get_mut(key) {
            entry.last_used = tick;
            return;
        }
        store.total_bytes += bytes;
        store.index.insert(
            key.clone(),
            DiskEntry {
                path,
                bytes,
                last_used: tick,
            },
        );
        store.evict_to_fit();
    }

    fn remove(&mut self, key: &CacheKey) {
        if let Some(entry) = self.index.remove(key) {
            self.total_bytes = self.total_bytes.saturating_sub(entry.bytes);
        }
    }

    /// Deletes least-recently-used files until `total_bytes` fits the
    /// bound. The bound is strict: even a just-written entry is
    /// deleted if it alone exceeds it.
    fn evict_to_fit(&mut self) {
        while self.total_bytes > self.config.max_bytes {
            let Some(lru) = self
                .index
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(entry) = self.index.remove(&lru) {
                self.total_bytes = self.total_bytes.saturating_sub(entry.bytes);
                let _ = std::fs::remove_file(&entry.path);
            }
        }
    }
}

/// `<fp:016x>-<backend>-<shots>-<seed>-<start>.json` — every component
/// of the key is in the name, so the directory is greppable and names
/// never collide across distinct keys.
fn file_name(key: &CacheKey) -> String {
    format!(
        "{:016x}-{}-{}-{}-{}.json",
        key.circuit_fp, key.backend, key.shots, key.root_seed, key.start
    )
}

fn encode_entry(key: &CacheKey, counts: &Counts) -> String {
    let mut rows: Vec<(usize, usize)> = counts.iter().map(|(&k, &v)| (k, v)).collect();
    rows.sort_unstable();
    let mut text = Json::obj(vec![
        // Hex string: JSON numbers are f64-backed (exact to 2⁵³ only).
        ("fingerprint", Json::str(format!("{:016x}", key.circuit_fp))),
        ("backend", Json::str(key.backend)),
        ("shots", Json::from_u64(key.shots)),
        ("root_seed", Json::from_u64(key.root_seed)),
        ("start", Json::from_u64(key.start)),
        (
            "tallies",
            Json::Obj(
                rows.into_iter()
                    .map(|(k, v)| (k.to_string(), Json::from_usize(v)))
                    .collect(),
            ),
        ),
    ])
    .to_compact();
    text.push('\n');
    text
}

fn decode_entry(text: &str) -> Option<(CacheKey, Counts)> {
    let doc = Json::parse(text.trim()).ok()?;
    let circuit_fp = u64::from_str_radix(doc.get("fingerprint")?.as_str()?, 16).ok()?;
    // Round-trip through `Backend::parse` to recover the interned
    // `&'static str` the in-memory key uses.
    let backend = Backend::parse(doc.get("backend")?.as_str()?)?.name();
    let key = CacheKey {
        circuit_fp,
        backend,
        shots: doc.get("shots")?.as_u64()?,
        root_seed: doc.get("root_seed")?.as_u64()?,
        start: doc.get("start")?.as_u64()?,
    };
    let mut counts = Counts::new();
    for (outcome, count) in doc.get("tallies")?.as_obj()? {
        counts.insert(
            outcome.parse().ok()?,
            usize::try_from(count.as_u64()?).ok()?,
        );
    }
    Some((key, counts))
}

fn lock_disk(disk: &Mutex<DiskStore>) -> MutexGuard<'_, DiskStore> {
    disk.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A completed result's disk write, taken under the cache owner's lock
/// by [`ResultCache::insert_deferred`] and performed by
/// [`Spill::write`] after that lock is dropped.
#[must_use = "a spill persists nothing until it is written"]
pub struct Spill {
    disk: Arc<Mutex<DiskStore>>,
    key: CacheKey,
    counts: Counts,
}

impl Spill {
    /// Persists the result (best-effort, like every disk operation).
    pub fn write(self) {
        DiskStore::store(&self.disk, &self.key, &self.counts);
    }
}

/// A result held on disk, not in memory: found by
/// [`ResultCache::find`] under the cache owner's lock and read by
/// [`DiskRead::read`] after that lock is dropped.
#[must_use = "a disk hit serves nothing until it is read"]
struct DiskRead {
    disk: Arc<Mutex<DiskStore>>,
    key: CacheKey,
}

impl DiskRead {
    /// Reads the entry back, bumping its recency; the file is read and
    /// decoded with the index unlocked. A file that went corrupt since
    /// the scan (or was evicted meanwhile) is a miss, and a corrupt one
    /// is deleted.
    fn read(self) -> Option<Counts> {
        let path = {
            let mut store = lock_disk(&self.disk);
            store.tick += 1;
            let tick = store.tick;
            let entry = store.index.get_mut(&self.key)?;
            entry.last_used = tick;
            entry.path.clone()
        };
        let decoded = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| decode_entry(&text))
            // A colliding or renamed file must never serve a foreign
            // result: the decoded identity has to round-trip.
            .filter(|(decoded_key, _)| *decoded_key == self.key);
        match decoded {
            Some((_, counts)) => Some(counts),
            None => {
                lock_disk(&self.disk).remove(&self.key);
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }
}

/// Where [`ResultCache::find`] found a key.
enum Found {
    /// In memory (its recency refreshed).
    Memory(Counts),
    /// Only on disk: read it off the owner's lock, then promote it.
    Disk(DiskRead),
    /// Nowhere.
    Miss,
}

/// Fixed-capacity LRU map from [`CacheKey`] to result tallies, with an
/// optional disk tier (see the module docs).
pub struct ResultCache {
    capacity: usize,
    tick: u64,
    /// Bumped each time the memory tier gains an entry (module docs).
    generation: u64,
    entries: HashMap<CacheKey, CacheEntry>,
    disk: Option<Arc<Mutex<DiskStore>>>,
    /// Each eviction: the owner's `cache.evictions`.
    pub evictions: obs::Counter,
    /// Each memory-tier read: the owner's `cache.probes`.
    pub probes: obs::Counter,
    /// Each request's first lookup: the owner's `stage.cache_lookup`.
    pub lookups: obs::Histo,
}

impl ResultCache {
    /// An empty in-memory-only cache holding at most `capacity`
    /// results (0 disables caching entirely).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            tick: 0,
            generation: 0,
            entries: HashMap::new(),
            disk: None,
            evictions: obs::Counter::new(),
            probes: obs::Counter::new(),
            lookups: obs::Histo::new(),
        }
    }

    /// A cache backed by a disk spill directory: inserts write
    /// through, misses consult the directory (promoting hits to
    /// memory), and entries persisted by an earlier process are warm
    /// immediately. `capacity` 0 still disables everything.
    pub fn with_disk(capacity: usize, disk: DiskCacheConfig) -> Self {
        let mut cache = ResultCache::new(capacity);
        if capacity > 0 {
            cache.disk = Some(Arc::new(Mutex::new(DiskStore::open(disk))));
        }
        cache
    }

    /// Looks `key` up, refreshing its recency. Memory first, then the
    /// disk tier (a disk hit is promoted to memory). Reads the file in
    /// place: an owner that guards the cache with a lock uses
    /// [`ResultCache::get_guarded`], which reads it after the lock.
    pub fn get(&mut self, key: &CacheKey) -> Option<Counts> {
        match self.find(key, &mut None) {
            Found::Memory(counts) => Some(counts),
            Found::Disk(read) => {
                let counts = read.read()?;
                self.insert_memory(key.clone(), counts.clone());
                Some(counts)
            }
            Found::Miss => None,
        }
    }

    /// The memory tier's entry for `key`, its recency refreshed. Never
    /// touches the disk.
    pub fn get_memory(&mut self, key: &CacheKey) -> Option<Counts> {
        self.probes.inc();
        self.tick += 1;
        let entry = self.entries.get_mut(key)?;
        entry.last_used = self.tick;
        Some(entry.counts.clone())
    }

    /// The generation the memory tier is at (module docs).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Looks `key` up in memory, unless it missed there at the current
    /// generation (`missed_at`, set to it), then in the disk index
    /// without reading a file: a key held only on disk comes back as the
    /// [`DiskRead`] to make once the owner's lock is dropped.
    fn find(&mut self, key: &CacheKey, missed_at: &mut Option<u64>) -> Found {
        let unread = missed_at.replace(self.generation) != Some(self.generation);
        if let Some(counts) = unread.then(|| self.get_memory(key)).flatten() {
            return Found::Memory(counts);
        }
        match &self.disk {
            Some(disk) if lock_disk(disk).index.contains_key(key) => Found::Disk(DiskRead {
                disk: Arc::clone(disk),
                key: key.clone(),
            }),
            _ => Found::Miss,
        }
    }

    /// [`ResultCache::get`] on the cache that `owner`'s lock guards
    /// (reached through `cache`), with that lock held on return, for a
    /// key that missed memory at generation `missed_at` (`None` before a
    /// request's first lookup, which is timed): memory only if the
    /// generation has moved, or a result held only on disk read with the
    /// lock dropped and promoted to memory once it is taken again — so
    /// whatever the owner checks next, it checks after the read.
    ///
    /// # Panics
    ///
    /// If `owner`'s lock is poisoned.
    pub fn get_guarded<'a, T>(
        owner: &'a Mutex<T>,
        cache: impl Fn(&mut T) -> &mut ResultCache,
        key: &CacheKey,
        missed_at: &mut Option<u64>,
    ) -> (MutexGuard<'a, T>, Option<Counts>) {
        let lock = || owner.lock().expect("cache owner poisoned");
        let first = missed_at.is_none().then(Instant::now);
        let mut guard = lock();
        let hit = match cache(&mut guard).find(key, missed_at) {
            Found::Memory(counts) => Some(counts),
            Found::Disk(read) => {
                drop(guard);
                let loaded = read.read();
                guard = lock();
                let cache = cache(&mut guard);
                match loaded {
                    Some(counts) => {
                        cache.insert_memory(key.clone(), counts.clone());
                        Some(counts)
                    }
                    // A racing completion may have landed it meanwhile.
                    None => match cache.find(key, missed_at) {
                        Found::Memory(counts) => Some(counts),
                        _ => None,
                    },
                }
            }
            Found::Miss => None,
        };
        if let Some(started) = first {
            cache(&mut guard).lookups.record_duration(started.elapsed());
        }
        (guard, hit)
    }

    /// Inserts a completed result, evicting the least-recently-used
    /// entry if the cache is full; with a disk tier, also persists it
    /// (write-through).
    pub fn insert(&mut self, key: CacheKey, counts: Counts) {
        if let Some(spill) = self.insert_deferred(key, counts) {
            spill.write();
        }
    }

    /// [`ResultCache::insert`]'s memory half; with a disk tier, its
    /// disk half comes back as a [`Spill`] for the caller to write once
    /// it has dropped the lock that guards this cache.
    pub fn insert_deferred(&mut self, key: CacheKey, counts: Counts) -> Option<Spill> {
        if self.capacity == 0 {
            return None;
        }
        let spill = self.disk.as_ref().map(|disk| Spill {
            disk: Arc::clone(disk),
            key: key.clone(),
            counts: counts.clone(),
        });
        self.insert_memory(key, counts);
        spill
    }

    /// Keeps a result in memory, evicting the least-recently-used entry
    /// if the cache is full, and moves the generation on.
    fn insert_memory(&mut self, key: CacheKey, counts: Counts) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            // O(n) scan — capacities are small (hundreds), and insert
            // happens once per executed job, not per request.
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
                self.evictions.inc();
            }
        }
        self.entries.insert(
            key,
            CacheEntry {
                counts,
                last_used: self.tick,
            },
        );
        self.generation += 1;
    }

    /// Resident in-memory entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the in-memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries currently persisted on disk (0 without a disk tier).
    pub fn disk_len(&self) -> usize {
        self.disk.as_ref().map_or(0, |d| lock_disk(d).index.len())
    }

    /// Total bytes currently persisted on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.disk.as_ref().map_or(0, |d| lock_disk(d).total_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(fp: u64) -> CacheKey {
        CacheKey {
            circuit_fp: fp,
            backend: "statevector",
            shots: 100,
            root_seed: 1,
            start: 0,
        }
    }

    fn counts(n: usize) -> Counts {
        [(0usize, n)].into_iter().collect()
    }

    impl ResultCache {
        /// [`ResultCache::find`] for a request that has not looked yet.
        fn lookup(&mut self, key: &CacheKey) -> Found {
            self.find(key, &mut None)
        }
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        assert_ne!(fingerprint(""), fingerprint(" "));
    }

    #[test]
    fn get_after_insert_hits() {
        let mut cache = ResultCache::new(4);
        assert_eq!(cache.get(&key(1)), None);
        cache.insert(key(1), counts(7));
        assert_eq!(cache.get(&key(1)), Some(counts(7)));
        // Different shots ⇒ different key.
        let mut other = key(1);
        other.shots = 200;
        assert_eq!(cache.get(&other), None);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut cache = ResultCache::new(2);
        cache.insert(key(1), counts(1));
        cache.insert(key(2), counts(2));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), counts(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none(), "LRU entry should be gone");
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut cache = ResultCache::new(2);
        cache.insert(key(1), counts(1));
        cache.insert(key(2), counts(2));
        cache.insert(key(1), counts(9));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(1)), Some(counts(9)));
        assert!(cache.get(&key(2)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ResultCache::new(0);
        cache.insert(key(1), counts(1));
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1)), None);
    }

    /// A unique scratch directory under the system temp dir; removed on
    /// drop so failed runs do not accumulate state.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "compas-cache-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self) -> &PathBuf {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn disk_entries_survive_a_reopen() {
        let dir = TempDir::new("reopen");
        {
            let mut cache = ResultCache::with_disk(4, DiskCacheConfig::new(dir.path()));
            cache.insert(key(1), counts(7));
            cache.insert(key(2), counts(9));
            assert_eq!(cache.disk_len(), 2);
        }
        // Fresh cache, same directory: memory is cold, disk is warm.
        let mut cache = ResultCache::with_disk(4, DiskCacheConfig::new(dir.path()));
        assert!(cache.is_empty(), "memory tier starts cold");
        assert_eq!(cache.disk_len(), 2);
        assert_eq!(cache.get(&key(1)), Some(counts(7)));
        assert_eq!(cache.get(&key(2)), Some(counts(9)));
        // The disk hit was promoted: now resident in memory too.
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_disk_hit_is_found_unread_and_promoted_once_read() {
        let dir = TempDir::new("promote");
        ResultCache::with_disk(4, DiskCacheConfig::new(dir.path())).insert(key(1), counts(7));
        let mut cache = ResultCache::with_disk(4, DiskCacheConfig::new(dir.path()));
        assert_eq!(
            cache.get_memory(&key(1)),
            None,
            "memory never reads the disk"
        );
        let Found::Disk(read) = cache.lookup(&key(1)) else {
            panic!("expected a disk hit");
        };
        assert!(cache.is_empty(), "nothing is read before the caller reads");
        let guarded = Mutex::new(cache);
        let (mut cache, hit) = ResultCache::get_guarded(&guarded, |c| c, &key(1), &mut None);
        assert_eq!(hit, Some(counts(7)));
        assert_eq!(cache.get_memory(&key(1)), Some(counts(7)), "promoted");
        assert!(matches!(cache.lookup(&key(2)), Found::Miss));
        // The pending read still reads the same entry.
        drop(cache);
        assert_eq!(read.read(), Some(counts(7)));
    }

    #[test]
    fn only_a_memory_insert_or_promotion_moves_the_generation() {
        let mut cache = ResultCache::new(1);
        cache.insert(key(1), counts(1));
        assert_eq!(cache.generation(), 1, "an insert");
        assert_eq!(cache.get(&key(2)), None);
        assert!(cache.get(&key(1)).is_some());
        assert_eq!(cache.generation(), 1, "a miss and a hit");
        cache.insert(key(2), counts(2));
        assert_eq!(cache.evictions.get(), 1);
        assert_eq!(cache.generation(), 2, "an insert that evicts, once");
        let mut disabled = ResultCache::new(0);
        disabled.insert(key(1), counts(1));
        assert_eq!(disabled.generation(), 0, "a capacity-0 insert");

        let dir = TempDir::new("generation");
        ResultCache::with_disk(4, DiskCacheConfig::new(dir.path())).insert(key(1), counts(7));
        let mut cache = ResultCache::with_disk(4, DiskCacheConfig::new(dir.path()));
        assert_eq!(cache.generation(), 0, "a reopened disk tier");
        assert_eq!(cache.get(&key(1)), Some(counts(7)));
        assert_eq!(cache.generation(), 1, "a disk promotion");
        let guarded = Mutex::new(ResultCache::with_disk(4, DiskCacheConfig::new(dir.path())));
        let mut missed_at = Some(0);
        let (cache, hit) = ResultCache::get_guarded(&guarded, |c| c, &key(1), &mut missed_at);
        assert_eq!(
            hit,
            Some(counts(7)),
            "the disk is read at an unmoved generation"
        );
        assert_eq!(cache.generation(), 1, "a guarded disk promotion");
        assert_eq!(cache.probes.get(), 0, "memory was not read");
    }

    #[test]
    fn a_guarded_pass_reads_memory_only_if_the_generation_moved() {
        let guarded = Mutex::new(ResultCache::new(4));
        let mut missed_at = None;
        let (cache, hit) = ResultCache::get_guarded(&guarded, |c| c, &key(1), &mut missed_at);
        drop(cache);
        assert_eq!((hit, missed_at), (None, Some(0)));
        let (mut cache, hit) = ResultCache::get_guarded(&guarded, |c| c, &key(1), &mut missed_at);
        assert_eq!(hit, None);
        assert_eq!(
            cache.probes.get(),
            1,
            "an unmoved generation is not read again"
        );
        cache.insert(key(1), counts(3));
        drop(cache);
        let (cache, hit) = ResultCache::get_guarded(&guarded, |c| c, &key(1), &mut missed_at);
        assert_eq!(hit, Some(counts(3)), "a moved generation is read");
        assert_eq!(cache.probes.get(), 2);
    }

    #[test]
    fn corrupt_and_truncated_files_are_ignored_not_fatal() {
        let dir = TempDir::new("corrupt");
        {
            let mut cache = ResultCache::with_disk(4, DiskCacheConfig::new(dir.path()));
            cache.insert(key(1), counts(7));
        }
        // Damage the entry, strand a half-write, and drop in garbage.
        let entry = std::fs::read_dir(dir.path())
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "json"))
            .unwrap();
        let text = std::fs::read_to_string(&entry).unwrap();
        std::fs::write(&entry, &text[..text.len() / 2]).unwrap();
        std::fs::write(dir.path().join(".tmp-stranded.json"), "{\"half\":").unwrap();
        std::fs::write(dir.path().join("not-json.json"), "hello").unwrap();
        let mut cache = ResultCache::with_disk(4, DiskCacheConfig::new(dir.path()));
        assert_eq!(cache.disk_len(), 0, "damaged entries must not be indexed");
        assert_eq!(cache.get(&key(1)), None, "truncated entry reads as a miss");
        // The damaged files were deleted, and the cache still works.
        assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 0);
        cache.insert(key(1), counts(7));
        assert_eq!(cache.disk_len(), 1);
    }

    #[test]
    fn disk_eviction_respects_the_size_bound() {
        let dir = TempDir::new("evict");
        let entry_bytes = {
            let mut probe = ResultCache::with_disk(8, DiskCacheConfig::new(dir.path()));
            probe.insert(key(0), counts(1));
            probe.disk_bytes()
        };
        assert!(entry_bytes > 0);
        // Room for three entries (all entries here encode to the same
        // few bytes, give or take single-digit count widths).
        let config = DiskCacheConfig {
            dir: dir.path().clone(),
            max_bytes: entry_bytes * 3 + entry_bytes / 2,
        };
        let mut cache = ResultCache::with_disk(8, config.clone());
        for fp in 1..=6 {
            cache.insert(key(fp), counts(1));
        }
        assert!(
            cache.disk_bytes() <= config.max_bytes,
            "bound violated: {} > {}",
            cache.disk_bytes(),
            config.max_bytes
        );
        assert!(cache.disk_len() < 6, "some entries must have been evicted");
        // The most recent inserts survived; the oldest did not.
        let on_disk: Vec<bool> = (1..=6)
            .map(|fp| {
                ResultCache::with_disk(8, config.clone())
                    .get(&key(fp))
                    .is_some()
            })
            .collect();
        assert!(!on_disk[0], "oldest entry should be evicted");
        assert!(on_disk[5], "newest entry must survive");
    }

    #[test]
    fn racing_spills_of_one_key_leave_one_valid_file() {
        let dir = TempDir::new("race");
        let mut cache = ResultCache::with_disk(4, DiskCacheConfig::new(dir.path()));
        let keys: usize = 32;
        for fp in 0..keys as u64 {
            // Two completions of one key, each spilling after its lock,
            // released together by a spinning barrier.
            let spills: Vec<Spill> = (0..2)
                .map(|_| {
                    cache
                        .insert_deferred(key(fp), counts(7))
                        .expect("a disk tier")
                })
                .collect();
            let arrived = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for spill in spills {
                    let arrived = &arrived;
                    scope.spawn(move || {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        while arrived.load(Ordering::SeqCst) < 2 {
                            std::hint::spin_loop();
                        }
                        spill.write();
                    });
                }
            });
        }
        assert_eq!(cache.disk_len(), keys);
        let files: Vec<PathBuf> = std::fs::read_dir(dir.path())
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .collect();
        assert_eq!(files.len(), keys, "one file per key, none temporary");
        let on_disk: u64 = files
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum();
        assert_eq!(cache.disk_bytes(), on_disk, "a racing spill counted twice");
        let mut reopened = ResultCache::with_disk(4, DiskCacheConfig::new(dir.path()));
        for fp in 0..keys as u64 {
            assert_eq!(reopened.get(&key(fp)), Some(counts(7)));
        }
    }

    #[test]
    fn disk_round_trip_preserves_the_exact_key_and_tallies() {
        let dir = TempDir::new("roundtrip");
        let key = CacheKey {
            circuit_fp: u64::MAX - 3, // exercises >2^53 fingerprints
            backend: "stabilizer",
            shots: 12_345,
            root_seed: 99,
            start: 4_096,
        };
        let tallies: Counts = [(0usize, 6000), (5, 6345)].into_iter().collect();
        {
            let mut cache = ResultCache::with_disk(4, DiskCacheConfig::new(dir.path()));
            cache.insert(key.clone(), tallies.clone());
        }
        let mut cache = ResultCache::with_disk(4, DiskCacheConfig::new(dir.path()));
        assert_eq!(cache.get(&key), Some(tallies));
    }
}

//! The per-process runtime: heap + reference tables + GC + abort semantics.

use std::collections::BTreeMap;

use jgre_sim::{Pid, SimClock, SimTime, Tid, TraceSink};
use serde::Serialize;

use crate::{
    ArtError, ClassName, Finalizer, Heap, IndirectRef, IndirectRefTable, IrtCookie, JgrEvent,
    JgrEventKind, JgrObserver, ObjRef, ObserverRegistry, RefKind, MAX_GLOBAL_REFS, MAX_LOCAL_REFS,
    MAX_WEAK_GLOBAL_REFS,
};

/// Lifecycle state of a runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RuntimeState {
    /// Normal operation.
    Running,
    /// The global reference table overflowed; the hosting process is dead.
    /// For `system_server` this means an Android soft reboot.
    Aborted,
}

/// Identifier of an attached JNI environment (one per simulated thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct EnvId(Tid);

impl EnvId {
    /// The thread this environment belongs to.
    pub fn tid(self) -> Tid {
        self.0
    }
}

/// Result of one garbage collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct GcStats {
    /// Objects reclaimed.
    pub freed_objects: usize,
    /// Finalizers executed.
    pub finalizers_run: usize,
    /// Global references released by finalizers during this collection.
    pub globals_released: usize,
    /// Sweep rounds until fixpoint.
    pub rounds: usize,
}

/// Aggregate counters exposed for experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct RuntimeStats {
    /// Lifetime global-reference adds.
    pub global_adds: u64,
    /// Lifetime global-reference removes.
    pub global_removes: u64,
    /// Highest global table size observed.
    pub global_high_watermark: usize,
    /// Garbage collections run.
    pub gc_count: u64,
    /// Objects ever allocated.
    pub objects_allocated: u64,
}

/// One observable step of a collection, tagged with its round.
#[derive(Debug, Clone, PartialEq, Eq)]
enum GcStep {
    Freed(usize, ObjRef),
    Finalized(usize, Finalizer),
}

/// A simulated ART runtime instance for one process.
///
/// See the [crate docs](crate) for the overall model. The key behavioural
/// contract, straight from the paper: *"when the number of JGR in one
/// process's runtime exceeds a system upper bound threshold (i.e., 51200),
/// this victim process aborts"*. After an abort every operation returns
/// [`ArtError::RuntimeAborted`].
#[derive(Debug)]
pub struct Runtime {
    pid: Pid,
    clock: SimClock,
    trace: TraceSink,
    heap: Heap,
    globals: IndirectRefTable,
    weak_globals: IndirectRefTable,
    envs: BTreeMap<Tid, IndirectRefTable>,
    observers: ObserverRegistry,
    state: RuntimeState,
    aborted_at: Option<SimTime>,
    gc_count: u64,
    check_jni: bool,
}

impl Runtime {
    /// Creates a running runtime for process `pid` with the Android 6.0.1
    /// table capacities.
    pub fn new(pid: Pid, clock: SimClock, trace: TraceSink) -> Self {
        Self::with_global_capacity(pid, clock, trace, MAX_GLOBAL_REFS)
    }

    /// Creates a runtime with a custom global-table capacity. Experiments
    /// use small capacities to exercise the abort path quickly; the ablation
    /// benches sweep it.
    ///
    /// # Panics
    ///
    /// Panics if `global_capacity` is zero.
    pub fn with_global_capacity(
        pid: Pid,
        clock: SimClock,
        trace: TraceSink,
        global_capacity: usize,
    ) -> Self {
        Self {
            pid,
            clock,
            trace,
            heap: Heap::new(),
            globals: IndirectRefTable::new(RefKind::Global, global_capacity),
            weak_globals: IndirectRefTable::new(RefKind::WeakGlobal, MAX_WEAK_GLOBAL_REFS),
            envs: BTreeMap::new(),
            observers: ObserverRegistry::new(),
            state: RuntimeState::Running,
            aborted_at: None,
            gc_count: 0,
            check_jni: false,
        }
    }

    /// The owning process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current lifecycle state.
    pub fn state(&self) -> RuntimeState {
        self.state
    }

    /// When the runtime aborted, if it did.
    pub fn aborted_at(&self) -> Option<SimTime> {
        self.aborted_at
    }

    /// Enables CheckJNI: using an invalid (stale or deleted) indirect
    /// reference aborts the runtime instead of merely failing the call —
    /// "JNI DETECTED ERROR IN APPLICATION" — as `adb shell setprop
    /// debug.checkjni 1` does on a real device.
    pub fn set_check_jni(&mut self, enabled: bool) {
        self.check_jni = enabled;
    }

    /// Whether CheckJNI is active.
    pub fn check_jni(&self) -> bool {
        self.check_jni
    }

    /// Registers a [`JgrObserver`] that will see every global add/remove.
    pub fn register_observer(&mut self, observer: std::rc::Rc<dyn JgrObserver>) {
        self.observers.register(observer);
    }

    /// Drops every registered observer (the observing process died).
    pub fn clear_observers(&mut self) {
        self.observers.clear();
    }

    /// Live size of the global reference table — the quantity plotted on
    /// the Y axis of the paper's Figures 3 and 4.
    pub fn global_count(&self) -> usize {
        self.globals.len()
    }

    /// Capacity of the global table (51200 unless overridden).
    pub fn global_capacity(&self) -> usize {
        self.globals.capacity()
    }

    /// Live size of the weak-global table.
    pub fn weak_global_count(&self) -> usize {
        self.weak_globals.len()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            global_adds: self.globals.total_adds(),
            global_removes: self.globals.total_removes(),
            global_high_watermark: self.globals.high_watermark(),
            gc_count: self.gc_count,
            objects_allocated: self.heap.total_allocated(),
        }
    }

    /// Live heap object count.
    pub fn heap_live(&self) -> usize {
        self.heap.live_count()
    }

    fn ensure_running(&self) -> Result<(), ArtError> {
        match self.state {
            RuntimeState::Running => Ok(()),
            RuntimeState::Aborted => Err(ArtError::RuntimeAborted),
        }
    }

    /// Allocates a new heap object.
    ///
    /// The allocation itself cannot fail; a dead runtime simply no longer
    /// allocates, which we model by panicking in debug via `ensure_running`
    /// being checked on the reference operations instead — allocation on an
    /// aborted runtime returns a handle that no table will accept.
    pub fn alloc(&mut self, class: impl Into<ClassName>) -> ObjRef {
        self.heap.alloc(class)
    }

    /// Class of a live object.
    ///
    /// # Errors
    ///
    /// [`ArtError::StaleObjRef`] if the object was collected.
    pub fn class_of(&self, obj: ObjRef) -> Result<&str, ArtError> {
        self.heap.class_of(obj)
    }

    /// Whether `obj` is still live.
    pub fn is_live(&self, obj: ObjRef) -> bool {
        self.heap.is_live(obj)
    }

    /// Pins an object independent of any reference table (models a service
    /// storing the object in a member collection — the retention that makes
    /// an interface vulnerable).
    ///
    /// # Errors
    ///
    /// [`ArtError::StaleObjRef`] if the object was collected.
    pub fn retain(&mut self, obj: ObjRef) -> Result<(), ArtError> {
        self.heap.pin(obj)
    }

    /// Releases a [`retain`](Self::retain) pin. The object becomes
    /// collectable once all pins are gone.
    ///
    /// # Errors
    ///
    /// [`ArtError::StaleObjRef`] if the object was collected.
    pub fn release(&mut self, obj: ObjRef) -> Result<(), ArtError> {
        self.heap.unpin(obj)
    }

    /// Attaches a finalizer to `obj`.
    ///
    /// # Errors
    ///
    /// [`ArtError::StaleObjRef`] if the object was collected.
    pub fn add_finalizer(&mut self, obj: ObjRef, finalizer: Finalizer) -> Result<(), ArtError> {
        self.heap.add_finalizer(obj, finalizer)
    }

    /// Creates a JNI global reference to `obj`, pinning it.
    ///
    /// This is the `IndirectReferenceTable::Add(cookie, obj)` entry point
    /// that the paper's JGR Entry Extractor hunts for (§III-B).
    ///
    /// # Errors
    ///
    /// * [`ArtError::TableOverflow`] when the 51200 cap is hit — the
    ///   runtime **aborts** as a side effect, exactly the JGRE condition.
    /// * [`ArtError::RuntimeAborted`] if the runtime already aborted.
    /// * [`ArtError::StaleObjRef`] if `obj` was collected.
    pub fn add_global(&mut self, obj: ObjRef) -> Result<IndirectRef, ArtError> {
        self.ensure_running()?;
        self.heap.pin(obj)?;
        match self.globals.add(obj) {
            Ok(iref) => {
                self.emit(JgrEventKind::Add);
                Ok(iref)
            }
            Err(err) => {
                self.heap.unpin(obj).expect("pinned just above");
                self.abort();
                Err(err)
            }
        }
    }

    /// Deletes a global reference and unpins its object.
    ///
    /// # Errors
    ///
    /// [`ArtError::InvalidIndirectRef`] for unknown/stale references,
    /// [`ArtError::RuntimeAborted`] after an abort.
    pub fn delete_global(&mut self, iref: IndirectRef) -> Result<(), ArtError> {
        self.ensure_running()?;
        let obj = match self.globals.remove(iref) {
            Ok(obj) => obj,
            Err(err) => return Err(self.check_jni_trap(err)),
        };
        // The object may legitimately already be gone if it was collected
        // while pinned only by this reference — that cannot happen under the
        // current model, so surface bookkeeping bugs loudly.
        self.heap.unpin(obj).expect("global ref pinned its object");
        self.emit(JgrEventKind::Remove);
        Ok(())
    }

    /// Resolves a global reference.
    ///
    /// # Errors
    ///
    /// [`ArtError::InvalidIndirectRef`] for unknown/stale references.
    pub fn get_global(&mut self, iref: IndirectRef) -> Result<ObjRef, ArtError> {
        match self.globals.get(iref) {
            Ok(obj) => Ok(obj),
            Err(err) => Err(self.check_jni_trap(err)),
        }
    }

    /// Creates a weak global reference (does not pin).
    ///
    /// # Errors
    ///
    /// [`ArtError::TableOverflow`] at the weak cap (does **not** abort the
    /// runtime; ART treats weak overflow the same way, and no attack in the
    /// paper goes through weak refs), [`ArtError::RuntimeAborted`] after an
    /// abort.
    pub fn add_weak_global(&mut self, obj: ObjRef) -> Result<IndirectRef, ArtError> {
        self.ensure_running()?;
        self.heap.class_of(obj)?; // validate liveness
        self.weak_globals.add(obj)
    }

    /// Deletes a weak global reference.
    ///
    /// # Errors
    ///
    /// [`ArtError::InvalidIndirectRef`] for unknown/stale references.
    pub fn delete_weak_global(&mut self, iref: IndirectRef) -> Result<(), ArtError> {
        self.ensure_running()?;
        self.weak_globals.remove(iref)?;
        Ok(())
    }

    /// Resolves a weak global reference; `Ok(None)` when the referent has
    /// been collected (the reference was cleared).
    ///
    /// # Errors
    ///
    /// [`ArtError::InvalidIndirectRef`] for unknown/stale references.
    pub fn get_weak_global(&self, iref: IndirectRef) -> Result<Option<ObjRef>, ArtError> {
        let obj = self.weak_globals.get(iref)?;
        Ok(self.heap.is_live(obj).then_some(obj))
    }

    /// Attaches a JNI environment for thread `tid` (idempotent).
    pub fn attach_thread(&mut self, tid: Tid) -> EnvId {
        self.envs
            .entry(tid)
            .or_insert_with(|| IndirectRefTable::new(RefKind::Local, MAX_LOCAL_REFS));
        EnvId(tid)
    }

    /// Opens a local-reference frame on `env` (a native method entry).
    ///
    /// # Errors
    ///
    /// [`ArtError::UnknownEnv`] if the thread was never attached.
    pub fn push_local_frame(&mut self, env: EnvId) -> Result<IrtCookie, ArtError> {
        Ok(self
            .envs
            .get_mut(&env.0)
            .ok_or(ArtError::UnknownEnv)?
            .push_frame())
    }

    /// Creates a local reference in the current frame of `env`, pinning the
    /// object until the frame pops.
    ///
    /// # Errors
    ///
    /// [`ArtError::UnknownEnv`], [`ArtError::TableOverflow`] (local caps at
    /// 512), or [`ArtError::StaleObjRef`].
    pub fn add_local(&mut self, env: EnvId, obj: ObjRef) -> Result<IndirectRef, ArtError> {
        self.ensure_running()?;
        let table = self.envs.get_mut(&env.0).ok_or(ArtError::UnknownEnv)?;
        self.heap.pin(obj)?;
        match table.add(obj) {
            Ok(iref) => Ok(iref),
            Err(err) => {
                self.heap.unpin(obj).expect("pinned just above");
                Err(err)
            }
        }
    }

    /// Closes a local frame, releasing every local reference created since
    /// — the automatic cleanup that makes *local* references safe where
    /// globals are not (paper §II-A).
    ///
    /// # Errors
    ///
    /// [`ArtError::UnknownEnv`] or [`ArtError::FrameMismatch`].
    pub fn pop_local_frame(&mut self, env: EnvId, cookie: IrtCookie) -> Result<(), ArtError> {
        let table = self.envs.get_mut(&env.0).ok_or(ArtError::UnknownEnv)?;
        let heap = &mut self.heap;
        table.pop_frame(cookie, |obj| {
            heap.unpin(obj).expect("local ref pinned its object");
        })
    }

    /// Number of live local references on `env`.
    ///
    /// # Errors
    ///
    /// [`ArtError::UnknownEnv`] if the thread was never attached.
    pub fn local_count(&self, env: EnvId) -> Result<usize, ArtError> {
        Ok(self.envs.get(&env.0).ok_or(ArtError::UnknownEnv)?.len())
    }

    /// Runs garbage collection to a fixpoint: frees unpinned objects, runs
    /// their finalizers (which may delete global references and unpin more
    /// objects), repeats.
    ///
    /// The first round scans the whole heap; every later round visits
    /// only the objects whose last pin a finalizer of the round before
    /// released, in slot order — the objects a full re-scan would find,
    /// freed in the same order, so the free list, the Remove events and
    /// the [`GcStats`] are those of a full re-scan. The collection
    /// allocates nothing.
    ///
    /// The paper's dynamic verification (§III-D) drives this periodically
    /// via DDMS while firing 60 000 IPC requests; a vulnerable interface is
    /// one whose JGR count stays high even across collections.
    pub fn collect_garbage(&mut self) -> GcStats {
        self.collect_garbage_observed(|_| {})
    }

    /// [`collect_garbage`](Self::collect_garbage), reporting every freed
    /// object, and every finalizer run, to `step` in order.
    fn collect_garbage_observed(&mut self, mut step: impl FnMut(GcStep)) -> GcStats {
        let mut stats = GcStats::default();
        self.gc_count += 1;
        let mut due = self.heap.mark_unpinned();
        while due {
            stats.rounds += 1;
            let mut cursor = 0;
            while let Some((obj, finalizers)) = self.heap.free_next_due(&mut cursor) {
                stats.freed_objects += 1;
                step(GcStep::Freed(stats.rounds, obj));
                for finalizer in finalizers {
                    stats.finalizers_run += 1;
                    step(GcStep::Finalized(stats.rounds, finalizer.clone()));
                    self.run_finalizer(finalizer, &mut stats);
                }
            }
            due = self.heap.next_round();
        }
        self.trace_gc(&stats);
        stats
    }

    /// The collector the incremental rounds replace, kept as their
    /// oracle: every round re-scans the whole heap, then runs the freed
    /// objects' finalizers.
    #[cfg(test)]
    fn collect_garbage_full_rescan(&mut self, mut step: impl FnMut(GcStep)) -> GcStats {
        let mut stats = GcStats::default();
        self.gc_count += 1;
        loop {
            let freed = self.heap.sweep_unpinned();
            if freed.is_empty() {
                break;
            }
            stats.rounds += 1;
            stats.freed_objects += freed.len();
            for (obj, _) in &freed {
                step(GcStep::Freed(stats.rounds, *obj));
            }
            for (_obj, finalizers) in freed {
                for finalizer in finalizers {
                    stats.finalizers_run += 1;
                    step(GcStep::Finalized(stats.rounds, finalizer.clone()));
                    match finalizer {
                        Finalizer::DeleteGlobalRef(iref) => {
                            if let Ok(obj) = self.globals.remove(iref) {
                                self.heap.unpin(obj).expect("global ref pinned its object");
                                stats.globals_released += 1;
                                self.emit(JgrEventKind::Remove);
                            }
                        }
                        Finalizer::DeleteWeakGlobalRef(iref) => {
                            let _ = self.weak_globals.remove(iref);
                        }
                        Finalizer::Unpin(obj) => {
                            let _ = self.heap.unpin(obj);
                        }
                    }
                }
            }
        }
        self.trace_gc(&stats);
        stats
    }

    fn trace_gc(&self, stats: &GcStats) {
        self.trace.record(
            self.clock.now(),
            Some(self.pid),
            None,
            "art.gc",
            format_args!(
                "freed={} finalizers={} globals_released={}",
                stats.freed_objects, stats.finalizers_run, stats.globals_released
            ),
        );
    }

    fn run_finalizer(&mut self, finalizer: Finalizer, stats: &mut GcStats) {
        match finalizer {
            Finalizer::DeleteGlobalRef(iref) => {
                // The reference may already have been deleted explicitly;
                // finalizers are best-effort, like BinderProxy.destroy().
                if let Ok(obj) = self.globals.remove(iref) {
                    self.heap
                        .unpin_collecting(obj)
                        .expect("global ref pinned its object");
                    stats.globals_released += 1;
                    self.emit(JgrEventKind::Remove);
                }
            }
            Finalizer::DeleteWeakGlobalRef(iref) => {
                let _ = self.weak_globals.remove(iref);
            }
            Finalizer::Unpin(obj) => {
                // Target may itself already be collected.
                let _ = self.heap.unpin_collecting(obj);
            }
        }
    }

    /// Summarises the global table by referent class, most frequent first
    /// — the "global reference table dump" ART prints when the table
    /// overflows, and what the paper's bug reports to Google contained.
    pub fn reference_table_dump(&self, top: usize) -> Vec<(String, usize)> {
        let mut by_class: std::collections::BTreeMap<&str, usize> = Default::default();
        for obj in self.globals.iter() {
            if let Ok(class) = self.heap.class_of(obj) {
                *by_class.entry(class).or_insert(0) += 1;
            }
        }
        let mut rows: Vec<(String, usize)> = by_class
            .into_iter()
            .map(|(class, count)| (class.to_owned(), count))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows.truncate(top);
        rows
    }

    /// Under CheckJNI an invalid-reference error becomes a runtime abort.
    fn check_jni_trap(&mut self, err: ArtError) -> ArtError {
        if self.check_jni && matches!(err, ArtError::InvalidIndirectRef { .. }) {
            self.trace.record(
                self.clock.now(),
                Some(self.pid),
                None,
                "art.checkjni",
                format_args!("JNI DETECTED ERROR IN APPLICATION: {err}"),
            );
            self.abort();
        }
        err
    }

    fn abort(&mut self) {
        self.state = RuntimeState::Aborted;
        self.aborted_at = Some(self.clock.now());
        let dump: Vec<String> = self
            .reference_table_dump(5)
            .into_iter()
            .map(|(class, count)| format!("{count} of {class}"))
            .collect();
        self.trace.record(
            self.clock.now(),
            Some(self.pid),
            None,
            "art.abort",
            format!(
                "JNI ERROR (app bug): global reference table overflow (max={}); summary: {}",
                self.globals.capacity(),
                dump.join(", ")
            ),
        );
    }

    fn emit(&self, kind: JgrEventKind) {
        let event = JgrEvent {
            at: self.clock.now(),
            pid: self.pid,
            kind,
            table_size_after: self.globals.len(),
        };
        self.observers.emit(event);
        self.trace.record(
            event.at,
            Some(self.pid),
            None,
            match kind {
                JgrEventKind::Add => "jgr.add",
                JgrEventKind::Remove => "jgr.remove",
            },
            format_args!("size={}", event.table_size_after),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn runtime_with_cap(cap: usize) -> Runtime {
        Runtime::with_global_capacity(Pid::new(1000), SimClock::new(), TraceSink::disabled(), cap)
    }

    #[test]
    fn default_capacity_is_the_paper_constant() {
        let rt = Runtime::new(Pid::new(1), SimClock::new(), TraceSink::disabled());
        assert_eq!(rt.global_capacity(), 51_200);
    }

    #[test]
    fn overflow_aborts_runtime() {
        let mut rt = runtime_with_cap(3);
        for _ in 0..3 {
            let obj = rt.alloc("android.os.Binder");
            rt.add_global(obj).unwrap();
        }
        let extra = rt.alloc("android.os.Binder");
        let err = rt.add_global(extra).unwrap_err();
        assert!(matches!(err, ArtError::TableOverflow { .. }));
        assert_eq!(rt.state(), RuntimeState::Aborted);
        assert!(rt.aborted_at().is_some());
        // Everything afterwards fails fast.
        let obj2 = rt.alloc("x");
        assert_eq!(rt.add_global(obj2), Err(ArtError::RuntimeAborted));
        assert!(rt.collect_garbage().freed_objects > 0);
    }

    #[test]
    fn delete_global_unpins_and_gc_collects() {
        let mut rt = runtime_with_cap(16);
        let obj = rt.alloc("android.os.BinderProxy");
        let iref = rt.add_global(obj).unwrap();
        rt.collect_garbage();
        assert!(rt.is_live(obj), "global ref pins the object");
        rt.delete_global(iref).unwrap();
        assert_eq!(rt.global_count(), 0);
        rt.collect_garbage();
        assert!(!rt.is_live(obj));
    }

    #[test]
    fn finalizer_releases_global_ref() {
        // Model: proxy object (pinned by the service) holds a JGR via its
        // finalizer; when the service releases it and GC runs, the JGR goes
        // away — the "innocent" pattern of sift rules 2-4.
        let mut rt = runtime_with_cap(16);
        let native_peer = rt.alloc("native.Peer");
        let gref = rt.add_global(native_peer).unwrap();
        let proxy = rt.alloc("android.os.BinderProxy");
        rt.add_finalizer(proxy, Finalizer::DeleteGlobalRef(gref))
            .unwrap();
        rt.retain(proxy).unwrap();
        let stats = rt.collect_garbage();
        assert_eq!(stats.globals_released, 0);
        assert_eq!(rt.global_count(), 1);
        rt.release(proxy).unwrap();
        let stats = rt.collect_garbage();
        assert_eq!(stats.globals_released, 1);
        assert_eq!(rt.global_count(), 0);
        assert!(!rt.is_live(native_peer));
        assert!(stats.rounds >= 2, "cascade needs a second sweep round");
    }

    #[test]
    fn local_frames_auto_release() {
        let mut rt = runtime_with_cap(16);
        let env = rt.attach_thread(Tid::new(7));
        let cookie = rt.push_local_frame(env).unwrap();
        let obj = rt.alloc("java.lang.String");
        rt.add_local(env, obj).unwrap();
        assert_eq!(rt.local_count(env).unwrap(), 1);
        rt.collect_garbage();
        assert!(rt.is_live(obj), "local ref pins while frame is open");
        rt.pop_local_frame(env, cookie).unwrap();
        assert_eq!(rt.local_count(env).unwrap(), 0);
        rt.collect_garbage();
        assert!(!rt.is_live(obj), "object dies when the native call returns");
    }

    #[test]
    fn weak_globals_do_not_pin() {
        let mut rt = runtime_with_cap(16);
        let obj = rt.alloc("x");
        let weak = rt.add_weak_global(obj).unwrap();
        rt.collect_garbage();
        assert_eq!(rt.get_weak_global(weak).unwrap(), None, "cleared by GC");
        rt.delete_weak_global(weak).unwrap();
    }

    #[test]
    fn observers_see_adds_and_removes() {
        struct Rec(RefCell<Vec<(JgrEventKind, usize)>>);
        impl JgrObserver for Rec {
            fn on_jgr_event(&self, e: JgrEvent) {
                self.0.borrow_mut().push((e.kind, e.table_size_after));
            }
        }
        let rec = Rc::new(Rec(RefCell::new(Vec::new())));
        let mut rt = runtime_with_cap(16);
        rt.register_observer(rec.clone());
        let a = rt.alloc("a");
        let b = rt.alloc("b");
        let ra = rt.add_global(a).unwrap();
        let _rb = rt.add_global(b).unwrap();
        rt.delete_global(ra).unwrap();
        assert_eq!(
            rec.0.borrow().as_slice(),
            &[
                (JgrEventKind::Add, 1),
                (JgrEventKind::Add, 2),
                (JgrEventKind::Remove, 1)
            ]
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut rt = runtime_with_cap(16);
        for _ in 0..5 {
            let o = rt.alloc("x");
            let r = rt.add_global(o).unwrap();
            rt.delete_global(r).unwrap();
        }
        let stats = rt.stats();
        assert_eq!(stats.global_adds, 5);
        assert_eq!(stats.global_removes, 5);
        assert_eq!(stats.global_high_watermark, 1);
        assert_eq!(stats.objects_allocated, 5);
    }

    #[test]
    fn weak_global_overflow_errors_without_aborting() {
        // Weak tables share the 51200-style cap but blowing them is not a
        // process abort — no attack in the paper goes through weak refs.
        let mut rt =
            Runtime::with_global_capacity(Pid::new(1), SimClock::new(), TraceSink::disabled(), 8);
        let obj = rt.alloc("pinned");
        rt.retain(obj).unwrap();
        let mut refs = Vec::new();
        // Exhaust the weak table (default cap is large; use the API shape
        // by filling a few and asserting behaviour stays Running).
        for _ in 0..1_000 {
            refs.push(rt.add_weak_global(obj).unwrap());
        }
        assert_eq!(rt.weak_global_count(), 1_000);
        assert_eq!(rt.state(), RuntimeState::Running);
        for r in refs {
            rt.delete_weak_global(r).unwrap();
        }
        assert_eq!(rt.weak_global_count(), 0);
    }

    #[test]
    fn check_jni_aborts_on_stale_reference_use() {
        let mut rt = runtime_with_cap(16);
        rt.set_check_jni(true);
        assert!(rt.check_jni());
        let obj = rt.alloc("x");
        let iref = rt.add_global(obj).unwrap();
        rt.delete_global(iref).unwrap();
        // Double-delete: without CheckJNI this is a plain error; with it,
        // the runtime dies like a real process under debug.checkjni.
        let err = rt.delete_global(iref).unwrap_err();
        assert!(matches!(err, ArtError::InvalidIndirectRef { .. }));
        assert_eq!(rt.state(), RuntimeState::Aborted);
    }

    #[test]
    fn without_check_jni_stale_use_is_recoverable() {
        let mut rt = runtime_with_cap(16);
        let obj = rt.alloc("x");
        let iref = rt.add_global(obj).unwrap();
        rt.delete_global(iref).unwrap();
        assert!(rt.delete_global(iref).is_err());
        assert_eq!(rt.state(), RuntimeState::Running, "plain error, no abort");
        assert!(rt.get_global(iref).is_err());
        assert_eq!(rt.state(), RuntimeState::Running);
    }

    #[test]
    fn reference_table_dump_ranks_classes() {
        let mut rt = runtime_with_cap(64);
        for _ in 0..5 {
            let o = rt.alloc("android.os.BinderProxy");
            rt.add_global(o).unwrap();
        }
        for _ in 0..2 {
            let o = rt.alloc("java.lang.String");
            rt.add_global(o).unwrap();
        }
        let dump = rt.reference_table_dump(10);
        assert_eq!(
            dump,
            vec![
                ("android.os.BinderProxy".to_owned(), 5),
                ("java.lang.String".to_owned(), 2)
            ]
        );
        assert_eq!(rt.reference_table_dump(1).len(), 1, "top is honoured");
    }

    /// A finalizer of a generated object graph. Object indices are taken
    /// modulo the graph's size.
    #[derive(Debug, Clone)]
    enum GraphFinalizer {
        /// Holds a global reference on object `peer`; `deleted_early`
        /// deletes it explicitly before any collection.
        Global { peer: usize, deleted_early: bool },
        /// Holds one pin on object `target` (a container's element).
        Unpin { target: usize },
        /// Holds a weak global reference on the object itself.
        Weak,
    }

    /// A generated object: `retained` service pins, of which `released`
    /// go before the first collection and the rest before the second.
    #[derive(Debug, Clone)]
    struct GraphObject {
        retained: u8,
        released: u8,
        finalizers: Vec<GraphFinalizer>,
    }

    fn graph_object() -> impl proptest::strategy::Strategy<Value = GraphObject> {
        use proptest::prelude::*;
        let finalizer = prop_oneof![
            (0usize..64, any::<bool>()).prop_map(|(peer, deleted_early)| {
                GraphFinalizer::Global {
                    peer,
                    deleted_early,
                }
            }),
            (0usize..64).prop_map(|target| GraphFinalizer::Unpin { target }),
            Just(GraphFinalizer::Weak),
        ];
        (0u8..3, 0u8..3, proptest::collection::vec(finalizer, 0..3)).prop_map(
            |(retained, released, finalizers)| GraphObject {
                retained,
                released: released.min(retained),
                finalizers,
            },
        )
    }

    /// Everything a collection exposes: the objects it freed and the
    /// finalizers it ran (each in order, tagged with the round), its
    /// stats, the Remove events, and the handles the next allocations
    /// get.
    type GcObservation = (
        Vec<GcStep>,
        Vec<GcStep>,
        GcStats,
        Vec<(JgrEventKind, usize)>,
        Vec<ObjRef>,
    );

    /// Builds `graph`, collects twice (releasing the remaining pins in
    /// between) with `collect`, and records what each collection showed.
    fn run_graph(
        graph: &[GraphObject],
        collect: fn(&mut Runtime, &mut Vec<GcStep>) -> GcStats,
    ) -> Vec<GcObservation> {
        struct Rec(RefCell<Vec<(JgrEventKind, usize)>>);
        impl JgrObserver for Rec {
            fn on_jgr_event(&self, e: JgrEvent) {
                self.0.borrow_mut().push((e.kind, e.table_size_after));
            }
        }
        let rec = Rc::new(Rec(RefCell::new(Vec::new())));
        let mut rt = runtime_with_cap(1_000);
        rt.register_observer(rec.clone());
        let objs: Vec<ObjRef> = graph.iter().map(|_| rt.alloc("o")).collect();
        for (&obj, spec) in objs.iter().zip(graph) {
            for _ in 0..spec.retained {
                rt.retain(obj).unwrap();
            }
        }
        for (&obj, spec) in objs.iter().zip(graph) {
            for finalizer in &spec.finalizers {
                let finalizer = match *finalizer {
                    GraphFinalizer::Global {
                        peer,
                        deleted_early,
                    } => {
                        let gref = rt.add_global(objs[peer % objs.len()]).unwrap();
                        if deleted_early {
                            rt.delete_global(gref).unwrap();
                        }
                        Finalizer::DeleteGlobalRef(gref)
                    }
                    GraphFinalizer::Unpin { target } => {
                        let target = objs[target % objs.len()];
                        rt.retain(target).unwrap();
                        Finalizer::Unpin(target)
                    }
                    GraphFinalizer::Weak => {
                        Finalizer::DeleteWeakGlobalRef(rt.add_weak_global(obj).unwrap())
                    }
                };
                rt.add_finalizer(obj, finalizer).unwrap();
            }
        }
        let mut observations = Vec::new();
        for phase in 0..2 {
            for (&obj, spec) in objs.iter().zip(graph) {
                let releases = match phase {
                    0 => spec.released,
                    _ => spec.retained - spec.released,
                };
                for _ in 0..releases {
                    rt.release(obj).unwrap();
                }
            }
            rec.0.borrow_mut().clear();
            let mut steps = Vec::new();
            let stats = collect(&mut rt, &mut steps);
            let events = rec.0.borrow().clone();
            let next: Vec<ObjRef> = (0..graph.len()).map(|_| rt.alloc("next")).collect();
            let (freed, finalized) = steps
                .into_iter()
                .partition(|step| matches!(step, GcStep::Freed(..)));
            observations.push((freed, finalized, stats, events, next));
        }
        observations
    }

    proptest::proptest! {
        /// The incremental collector frees the same objects in the same
        /// order, runs the same finalizers in the same order, emits the
        /// same Remove events, reports the same stats and leaves the
        /// same free list as a full re-scan of every round — including
        /// chains where a finalizer releases the last pin of an object
        /// that has finalizers of its own.
        #[test]
        fn incremental_gc_matches_the_full_rescan_oracle(
            graph in proptest::collection::vec(graph_object(), 1..40)
        ) {
            let incremental = run_graph(&graph, |rt, steps| {
                rt.collect_garbage_observed(|step| steps.push(step))
            });
            let oracle = run_graph(&graph, |rt, steps| {
                rt.collect_garbage_full_rescan(|step| steps.push(step))
            });
            proptest::prop_assert_eq!(incremental, oracle);
        }
    }

    #[test]
    fn finalizer_chains_free_one_link_per_round() {
        // obj[i]'s finalizer holds the only pin on obj[i - 1]; releasing
        // the head frees the chain one object per round, highest first.
        let mut rt = runtime_with_cap(16);
        let chain: Vec<ObjRef> = (0..5).map(|_| rt.alloc("link")).collect();
        for pair in chain.windows(2) {
            rt.retain(pair[0]).unwrap();
            rt.add_finalizer(pair[1], Finalizer::Unpin(pair[0]))
                .unwrap();
        }
        let head = chain[4];
        rt.retain(head).unwrap();
        assert_eq!(rt.collect_garbage().freed_objects, 0);
        rt.release(head).unwrap();
        let stats = rt.collect_garbage();
        assert_eq!(stats.rounds, 5);
        assert_eq!(stats.freed_objects, 5);
        assert_eq!(stats.finalizers_run, 4);
        assert_eq!(rt.heap_live(), 0);
    }

    #[test]
    fn exhaustion_run_matches_capacity_exactly() {
        // Fill to exactly the cap: the cap-th add succeeds, cap+1 aborts.
        let cap = 1000;
        let mut rt = runtime_with_cap(cap);
        for i in 0..cap {
            let o = rt.alloc("listener");
            rt.add_global(o)
                .unwrap_or_else(|e| panic!("add {i} failed: {e}"));
        }
        assert_eq!(rt.global_count(), cap);
        assert_eq!(rt.state(), RuntimeState::Running);
        let o = rt.alloc("listener");
        assert!(rt.add_global(o).is_err());
        assert_eq!(rt.state(), RuntimeState::Aborted);
    }
}

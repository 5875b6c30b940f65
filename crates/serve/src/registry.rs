//! The model registry: named, versioned artifacts with one active
//! serving model.
//!
//! Loading assigns the next version under the artifact's name and
//! validates online schedulability; activation switches the serving
//! model atomically (readers holding an [`std::sync::Arc`] to the old
//! model finish their prediction unperturbed); rollback restores the
//! previously active model, which is the operator's escape hatch when
//! a freshly activated model turns out to estimate badly.
//!
//! ## Crash-safe persistence
//!
//! A registry built with [`ModelRegistry::with_persistence`] mirrors
//! every loaded artifact to disk as
//! `<dir>/<name>__v<version>.model.json`, the active id to
//! `<dir>/ACTIVE.json`, and the rollback target to
//! `<dir>/PREVIOUS.json`. All writes are **atomic**: the bytes go to a
//! `.tmp` sibling, are fsynced, and the file is renamed into place —
//! a crash at any instant leaves either the old content or the new,
//! never a torn file. Recovery scans the directory, loads every
//! fully-written artifact, skips (and reports) anything torn or
//! invalid, deletes stray `.tmp` leftovers, and restores the active
//! model and the rollback target if their pointers resolve — so an
//! automatic rollback (the post-activation guard) still has somewhere
//! to go after a crash-restart.

use crate::artifact::ModelArtifact;
use crate::error::ServeError;
use crate::fsutil::write_atomic_durable;
use pmc_events::scheduler::CounterScheduler;
use pmc_json::Json;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Identifier of a loaded artifact: `(name, version)`.
pub type ModelId = (String, u32);

#[derive(Debug, Default)]
struct RegistryInner {
    models: Vec<Arc<ModelArtifact>>,
    active: Option<usize>,
    previous: Option<usize>,
}

impl RegistryInner {
    fn find(&self, name: &str, version: u32) -> Option<usize> {
        self.models
            .iter()
            .position(|m| m.name == name && m.version == version)
    }

    fn next_version(&self, name: &str) -> u32 {
        self.models
            .iter()
            .filter(|m| m.name == name)
            .map(|m| m.version)
            .max()
            .unwrap_or(0)
            + 1
    }
}

/// What a persistence recovery scan found.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Artifacts restored, in `(name, version)` order.
    pub loaded: Vec<ModelId>,
    /// Files that could not be restored: `(file name, reason)`. Torn
    /// writes, invalid JSON, unschedulable models, stray temp files.
    pub skipped: Vec<(String, String)>,
    /// The active model restored from the `ACTIVE.json` pointer, if it
    /// resolved to a loaded artifact.
    pub active_restored: Option<ModelId>,
    /// The rollback target restored from the `PREVIOUS.json` pointer,
    /// if it resolved to a loaded artifact.
    pub previous_restored: Option<ModelId>,
}

impl RecoveryReport {
    /// True if every file in the directory was restored cleanly.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty()
    }
}

/// Thread-safe registry of deployable power models.
#[derive(Debug)]
pub struct ModelRegistry {
    inner: RwLock<RegistryInner>,
    scheduler: CounterScheduler,
    persist_dir: Option<PathBuf>,
}

/// Resolves one persisted `{name, version}` pointer file against the
/// recovered artifact set. A missing file or a persisted `null`
/// resolves to nothing silently; an unreadable or dangling pointer is
/// reported in the recovery report, never fatal.
fn resolve_pointer(
    dir: &Path,
    file: &str,
    inner: &RegistryInner,
    report: &mut RecoveryReport,
) -> Option<(usize, ModelId)> {
    let path = dir.join(file);
    if !path.exists() {
        return None;
    }
    let parsed = std::fs::read_to_string(&path)
        .map_err(ServeError::from)
        .and_then(|text| Json::parse(&text).map_err(ServeError::from));
    let v = match parsed {
        Ok(Json::Null) => return None,
        Ok(v) => v,
        Err(e) => {
            report.skipped.push((file.to_string(), e.to_string()));
            return None;
        }
    };
    let id = match (v.str_field("name"), v.u32_field("version")) {
        (Ok(name), Ok(version)) => (name.to_string(), version),
        _ => {
            report
                .skipped
                .push((file.to_string(), "pointer is not {name, version}".into()));
            return None;
        }
    };
    match inner.find(&id.0, id.1) {
        Some(idx) => Some((idx, id)),
        None => {
            report.skipped.push((
                file.to_string(),
                format!("points at {} v{}, which did not recover", id.0, id.1),
            ));
            None
        }
    }
}

/// Recovers a read guard even if a panicking worker poisoned the
/// lock. The registry's invariants hold at every await-free mutation
/// boundary, so the data under a poisoned lock is still consistent —
/// propagating the poison would turn one contained panic into a
/// registry-wide outage.
fn read_inner(lock: &RwLock<RegistryInner>) -> RwLockReadGuard<'_, RegistryInner> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-guard twin of [`read_inner`].
fn write_inner(lock: &RwLock<RegistryInner>) -> RwLockWriteGuard<'_, RegistryInner> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// The on-disk file name for an artifact. The name charset is
/// enforced by [`ModelArtifact::validate`], so this can never escape
/// the persistence directory.
fn artifact_file_name(name: &str, version: u32) -> String {
    format!("{name}__v{version}.model.json")
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new(CounterScheduler::haswell_default())
    }
}

impl ModelRegistry {
    /// Creates an empty registry that validates against the given
    /// hardware counter budget.
    pub fn new(scheduler: CounterScheduler) -> Self {
        ModelRegistry {
            inner: RwLock::new(RegistryInner::default()),
            scheduler,
            persist_dir: None,
        }
    }

    /// Creates a registry persisted under `dir` (created if absent)
    /// and recovers whatever a previous process left there. Torn or
    /// invalid files are skipped and reported, never fatal — after a
    /// crash the registry comes back with the last fully-written
    /// artifact set.
    pub fn with_persistence(
        scheduler: CounterScheduler,
        dir: impl Into<PathBuf>,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut report = RecoveryReport::default();
        let mut artifacts: Vec<ModelArtifact> = Vec::new();

        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let file = match path.file_name().and_then(|n| n.to_str()) {
                Some(f) => f.to_string(),
                None => continue,
            };
            if file.ends_with(".tmp") {
                // A crash mid-save left this behind; the rename never
                // happened, so its target still holds the old content.
                let _ = std::fs::remove_file(&path);
                report.skipped.push((
                    file,
                    "stale temp file from interrupted save; removed".into(),
                ));
                continue;
            }
            if !file.ends_with(".model.json") {
                continue;
            }
            let restored = std::fs::read_to_string(&path)
                .map_err(ServeError::from)
                .and_then(|text| ModelArtifact::from_json(&text))
                .and_then(|a| a.validate(&scheduler).map(|_| a));
            match restored {
                Ok(a) => artifacts.push(a),
                Err(e) => report.skipped.push((file, e.to_string())),
            }
        }

        artifacts.sort_by(|a, b| (&a.name, a.version).cmp(&(&b.name, b.version)));
        report.loaded = artifacts
            .iter()
            .map(|a| (a.name.clone(), a.version))
            .collect();
        let mut inner = RegistryInner {
            models: artifacts.into_iter().map(Arc::new).collect(),
            active: None,
            previous: None,
        };

        if let Some((idx, id)) = resolve_pointer(&dir, "ACTIVE.json", &inner, &mut report) {
            inner.active = Some(idx);
            report.active_restored = Some(id);
        }
        if let Some((idx, id)) = resolve_pointer(&dir, "PREVIOUS.json", &inner, &mut report) {
            // The rollback target survives the restart — without it, a
            // post-activation guard restored from the checkpoint would
            // have nowhere to roll back to.
            if inner.active != Some(idx) {
                inner.previous = Some(idx);
                report.previous_restored = Some(id);
            }
        }

        Ok((
            ModelRegistry {
                inner: RwLock::new(inner),
                scheduler,
                persist_dir: Some(dir),
            },
            report,
        ))
    }

    /// The persistence directory, if this registry has one.
    pub fn persist_dir(&self) -> Option<&Path> {
        self.persist_dir.as_deref()
    }

    /// Re-mirrors the active pointer to disk. Every mutation already
    /// persists eagerly, so this is a no-op in the steady state — it
    /// exists for the server's graceful drain, which flushes the
    /// registry as its last act so a restart resumes from exactly the
    /// drained state even if an earlier eager write raced a crash.
    pub fn flush(&self) -> Result<(), ServeError> {
        let inner = read_inner(&self.inner);
        self.persist_active(&inner)
    }

    /// Mirrors the active id and the rollback target (or their
    /// absence) to `ACTIVE.json` / `PREVIOUS.json`. The two writes are
    /// individually atomic; a crash between them leaves a stale
    /// rollback target, which recovery tolerates (it only costs the
    /// guard its target, exactly the pre-persistence behavior).
    fn persist_active(&self, inner: &RegistryInner) -> Result<(), ServeError> {
        let Some(dir) = &self.persist_dir else {
            return Ok(());
        };
        let pointer = |idx: Option<usize>| match idx.map(|i| &inner.models[i]) {
            Some(m) => Json::obj(vec![
                ("name", Json::from(m.name.as_str())),
                ("version", Json::from(m.version)),
            ]),
            None => Json::Null,
        };
        write_atomic_durable(&dir.join("ACTIVE.json"), &pointer(inner.active).to_string())?;
        write_atomic_durable(
            &dir.join("PREVIOUS.json"),
            &pointer(inner.previous).to_string(),
        )
    }

    /// Loads an artifact: validates it, assigns the next version under
    /// its name, and stores it *inactive*. Returns the assigned id.
    ///
    /// With persistence enabled the artifact is written to disk
    /// (atomically) *before* it becomes visible in memory — a load
    /// that returns `Ok` is durable.
    pub fn load(&self, mut artifact: ModelArtifact) -> Result<ModelId, ServeError> {
        artifact.validate(&self.scheduler)?;
        let mut inner = write_inner(&self.inner);
        artifact.version = inner.next_version(&artifact.name);
        let id = (artifact.name.clone(), artifact.version);
        if let Some(dir) = &self.persist_dir {
            write_atomic_durable(
                &dir.join(artifact_file_name(&id.0, id.1)),
                &artifact.to_json()?,
            )?;
        }
        inner.models.push(Arc::new(artifact));
        Ok(id)
    }

    /// Loads and immediately activates an artifact.
    pub fn load_and_activate(&self, artifact: ModelArtifact) -> Result<ModelId, ServeError> {
        let id = self.load(artifact)?;
        self.activate(&id.0, id.1)?;
        Ok(id)
    }

    /// Makes `(name, version)` the serving model. The previously active
    /// model is remembered for [`ModelRegistry::rollback`].
    pub fn activate(&self, name: &str, version: u32) -> Result<ModelId, ServeError> {
        let mut inner = write_inner(&self.inner);
        let idx = inner
            .find(name, version)
            .ok_or_else(|| ServeError::Registry {
                reason: format!("no loaded model {name} v{version}"),
            })?;
        if inner.active != Some(idx) {
            inner.previous = inner.active;
            inner.active = Some(idx);
            self.persist_active(&inner)?;
        }
        Ok((name.to_string(), version))
    }

    /// Restores the previously active model. Errors if there is none.
    pub fn rollback(&self) -> Result<ModelId, ServeError> {
        let mut inner = write_inner(&self.inner);
        let prev = inner.previous.ok_or_else(|| ServeError::Registry {
            reason: "no previous model to roll back to".into(),
        })?;
        inner.previous = inner.active;
        inner.active = Some(prev);
        self.persist_active(&inner)?;
        let m = &inner.models[prev];
        Ok((m.name.clone(), m.version))
    }

    /// The currently serving model, if any.
    pub fn active(&self) -> Option<Arc<ModelArtifact>> {
        let inner = read_inner(&self.inner);
        inner.active.map(|i| Arc::clone(&inner.models[i]))
    }

    /// The previously active model (the rollback target), if any —
    /// also the server's fallback when the active model cannot serve
    /// a request the previous one can.
    pub fn previous(&self) -> Option<Arc<ModelArtifact>> {
        let inner = read_inner(&self.inner);
        inner.previous.map(|i| Arc::clone(&inner.models[i]))
    }

    /// The serving pair — `(active, previous)` — captured under one
    /// lock acquisition. An ingest must resolve the pair exactly once
    /// through this method: separate [`ModelRegistry::active`] /
    /// [`ModelRegistry::previous`] calls can interleave with an
    /// `activate` or `rollback` and observe a torn pair (e.g. the new
    /// active with the old previous), which would let the fallback
    /// serve a sample from a model that was never the active one's
    /// predecessor.
    pub fn serving_pair(&self) -> (Option<Arc<ModelArtifact>>, Option<Arc<ModelArtifact>>) {
        let inner = read_inner(&self.inner);
        (
            inner.active.map(|i| Arc::clone(&inner.models[i])),
            inner.previous.map(|i| Arc::clone(&inner.models[i])),
        )
    }

    /// A specific loaded model.
    pub fn get(&self, name: &str, version: u32) -> Option<Arc<ModelArtifact>> {
        let inner = read_inner(&self.inner);
        inner
            .find(name, version)
            .map(|i| Arc::clone(&inner.models[i]))
    }

    /// Number of loaded artifacts.
    pub fn len(&self) -> usize {
        read_inner(&self.inner).models.len()
    }

    /// True if nothing is loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Metadata for every loaded artifact, active one flagged.
    pub fn list(&self) -> Json {
        let inner = read_inner(&self.inner);
        let items: Vec<Json> = inner
            .models
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mut d = m.describe();
                if let Json::Obj(fields) = &mut d {
                    fields.push(("active".into(), Json::Bool(inner.active == Some(i))));
                }
                d
            })
            .collect();
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{oversized_model, tiny_model};

    fn registry() -> ModelRegistry {
        ModelRegistry::default()
    }

    #[test]
    fn load_assigns_monotone_versions_per_name() {
        let r = registry();
        let (_, v1) = r.load(ModelArtifact::new("a", tiny_model())).unwrap();
        let (_, v2) = r.load(ModelArtifact::new("a", tiny_model())).unwrap();
        let (_, u1) = r.load(ModelArtifact::new("b", tiny_model())).unwrap();
        assert_eq!((v1, v2, u1), (1, 2, 1));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn nothing_active_until_activated() {
        let r = registry();
        r.load(ModelArtifact::new("a", tiny_model())).unwrap();
        assert!(r.active().is_none());
        r.activate("a", 1).unwrap();
        assert_eq!(r.active().unwrap().version, 1);
    }

    #[test]
    fn activate_unknown_version_errors() {
        let r = registry();
        r.load(ModelArtifact::new("a", tiny_model())).unwrap();
        assert!(matches!(
            r.activate("a", 7),
            Err(ServeError::Registry { .. })
        ));
    }

    #[test]
    fn rollback_restores_previous_and_swaps() {
        let r = registry();
        r.load_and_activate(ModelArtifact::new("a", tiny_model()))
            .unwrap();
        r.load_and_activate(ModelArtifact::new("a", tiny_model()))
            .unwrap();
        assert_eq!(r.active().unwrap().version, 2);
        assert_eq!(r.rollback().unwrap().1, 1);
        assert_eq!(r.active().unwrap().version, 1);
        // Rolling back again returns to v2 (swap semantics).
        assert_eq!(r.rollback().unwrap().1, 2);
    }

    #[test]
    fn serving_pair_snapshot_survives_activate_and_rollback() {
        let r = registry();
        r.load_and_activate(ModelArtifact::new("a", tiny_model()))
            .unwrap();
        r.load_and_activate(ModelArtifact::new("a", tiny_model()))
            .unwrap();

        // A dispatch resolves its pair once, then registry churn
        // happens mid-flight: the pinned Arcs must be unaffected.
        let (active, previous) = r.serving_pair();
        r.load_and_activate(ModelArtifact::new("a", tiny_model()))
            .unwrap(); // v3 active
        r.rollback().unwrap(); // back to v2
        assert_eq!(active.as_ref().unwrap().version, 2);
        assert_eq!(previous.as_ref().unwrap().version, 1);

        // A fresh snapshot sees the post-churn state consistently.
        let (active2, previous2) = r.serving_pair();
        assert_eq!(active2.unwrap().version, 2);
        assert_eq!(previous2.unwrap().version, 3);
    }

    #[test]
    fn rollback_without_history_errors() {
        let r = registry();
        assert!(r.rollback().is_err());
        r.load_and_activate(ModelArtifact::new("a", tiny_model()))
            .unwrap();
        // One activation: nothing was active before it.
        assert!(r.rollback().is_err());
    }

    #[test]
    fn unschedulable_model_rejected_on_load() {
        let r = registry();
        let err = r.load(ModelArtifact::new("fat", oversized_model()));
        assert!(matches!(err, Err(ServeError::Schedule(_))), "{err:?}");
        assert!(r.is_empty());
    }

    /// A fresh scratch directory under the system temp dir.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pmc-registry-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persistence_survives_a_restart() {
        let dir = scratch_dir("restart");
        {
            let (r, report) =
                ModelRegistry::with_persistence(CounterScheduler::haswell_default(), &dir).unwrap();
            assert!(report.loaded.is_empty() && report.is_clean());
            r.load(ModelArtifact::new("a", tiny_model())).unwrap();
            r.load_and_activate(ModelArtifact::new("a", tiny_model()))
                .unwrap();
            r.load(ModelArtifact::new("b", tiny_model())).unwrap();
        }
        let (r, report) =
            ModelRegistry::with_persistence(CounterScheduler::haswell_default(), &dir).unwrap();
        assert!(report.is_clean(), "{:?}", report.skipped);
        assert_eq!(
            report.loaded,
            vec![
                ("a".to_string(), 1),
                ("a".to_string(), 2),
                ("b".to_string(), 1)
            ]
        );
        assert_eq!(report.active_restored, Some(("a".to_string(), 2)));
        let active = r.active().unwrap();
        assert_eq!((active.name.as_str(), active.version), ("a", 2));
        // Version numbering continues where it left off.
        assert_eq!(r.load(ModelArtifact::new("a", tiny_model())).unwrap().1, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Review regression: the rollback target did not survive a
    /// restart, so a post-activation guard restored from the
    /// checkpoint had nowhere to roll back to — a bad model activated
    /// just before a crash kept serving unguarded.
    #[test]
    fn rollback_target_survives_a_restart() {
        let dir = scratch_dir("previous");
        {
            let (r, _) =
                ModelRegistry::with_persistence(CounterScheduler::haswell_default(), &dir).unwrap();
            r.load_and_activate(ModelArtifact::new("a", tiny_model()))
                .unwrap();
            r.load_and_activate(ModelArtifact::new("a", tiny_model()))
                .unwrap();
        }
        let (r, report) =
            ModelRegistry::with_persistence(CounterScheduler::haswell_default(), &dir).unwrap();
        assert!(report.is_clean(), "{:?}", report.skipped);
        assert_eq!(report.previous_restored, Some(("a".to_string(), 1)));
        assert_eq!(r.previous().unwrap().version, 1);
        // The restored pair still rolls back — what a restored
        // post-activation guard depends on.
        assert_eq!(r.rollback().unwrap().1, 1);
        assert_eq!(r.active().unwrap().version, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_mid_save_recovers_last_fully_written_set() {
        let dir = scratch_dir("torn");
        {
            let (r, _) =
                ModelRegistry::with_persistence(CounterScheduler::haswell_default(), &dir).unwrap();
            r.load_and_activate(ModelArtifact::new("good", tiny_model()))
                .unwrap();
        }
        // Simulate a crash mid-save: a half-written artifact file and
        // a stray temp file the rename never consumed.
        let full = ModelArtifact::new("torn", tiny_model()).to_json().unwrap();
        std::fs::write(dir.join("torn__v1.model.json"), &full[..full.len() / 2]).unwrap();
        std::fs::write(dir.join("other__v1.model.json.tmp"), "partial").unwrap();

        let (r, report) =
            ModelRegistry::with_persistence(CounterScheduler::haswell_default(), &dir).unwrap();
        // The fully-written artifact set is back; the torn file and the
        // stray temp are skipped and reported, never loaded.
        assert_eq!(report.loaded, vec![("good".to_string(), 1)]);
        assert_eq!(report.active_restored, Some(("good".to_string(), 1)));
        assert_eq!(report.skipped.len(), 2, "{:?}", report.skipped);
        assert!(report
            .skipped
            .iter()
            .any(|(f, _)| f == "torn__v1.model.json"));
        assert!(report.skipped.iter().any(|(f, _)| f.ends_with(".tmp")));
        assert!(!dir.join("other__v1.model.json.tmp").exists());
        assert_eq!(r.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dangling_active_pointer_is_reported_not_fatal() {
        let dir = scratch_dir("dangling");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("ACTIVE.json"),
            "{\"name\": \"ghost\", \"version\": 9}",
        )
        .unwrap();
        let (r, report) =
            ModelRegistry::with_persistence(CounterScheduler::haswell_default(), &dir).unwrap();
        assert!(r.active().is_none());
        assert!(report
            .skipped
            .iter()
            .any(|(f, why)| f == "ACTIVE.json" && why.contains("ghost")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_reports_active_flag() {
        let r = registry();
        r.load(ModelArtifact::new("a", tiny_model())).unwrap();
        r.load_and_activate(ModelArtifact::new("a", tiny_model()))
            .unwrap();
        let l = r.list();
        let items = l.as_arr().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].field("active").unwrap(), &Json::Bool(false));
        assert_eq!(items[1].field("active").unwrap(), &Json::Bool(true));
    }
}

//! The routing layer: many named sessions behind one daemon.
//!
//! A [`SessionRegistry`] maps session names to independent [`Session`]s.
//! Every session gets its own policy, machine size, and durability
//! journal; they share one [`ServiceMetrics`] registry (request
//! accounting and journal counters aggregate daemon-wide, while the
//! unlabeled session gauges keep reflecting the default session so
//! existing dashboards and the CI smoke check stay valid).
//!
//! The registry owns the recovery path too: [`SessionRegistry::recover`]
//! scans the journal directory, replays each journal into a fresh core
//! under a manual clock (so wall time cannot contaminate the replayed
//! grant sequence), then re-adopts each session's configured clock mode
//! and reopens its journal for append. A recovered session continues
//! exactly where the acknowledged history ends — the schedule it seals is
//! byte-identical to an uninterrupted run over the same submissions.
//!
//! One name is special: [`DEFAULT_SESSION`] backs the unprefixed `/v1/*`
//! routes, always exists, and cannot be deleted.

use crate::api::{ServeError, SessionSpec, StatusResponse};
use crate::clock::ClockMode;
use crate::journal::{
    self, journal_path, scan_dir, valid_session_name, JournalEvent, SessionJournal,
};
use crate::metrics::ServiceMetrics;
use crate::session::{Session, SessionConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The session behind the unprefixed `/v1/*` routes.
pub const DEFAULT_SESSION: &str = "default";

/// Named sessions behind one daemon. Thread-safe; the daemon shares it
/// across pool workers.
pub struct SessionRegistry {
    sessions: Mutex<HashMap<String, Arc<Session>>>,
    /// Template for sessions created without explicit overrides (and the
    /// default session's exact configuration).
    template: SessionConfig,
    /// Where per-session journals live; `None` disables durability.
    journal_dir: Option<PathBuf>,
    metrics: Arc<ServiceMetrics>,
}

impl SessionRegistry {
    /// A registry with a fresh default session configured from
    /// `template`. When `journal_dir` is set, the default session (and
    /// every session created later) journals to it.
    pub fn new(
        template: SessionConfig,
        journal_dir: Option<PathBuf>,
        metrics: Arc<ServiceMetrics>,
    ) -> Result<SessionRegistry, ServeError> {
        let registry = SessionRegistry {
            sessions: Mutex::new(HashMap::new()),
            template,
            journal_dir,
            metrics,
        };
        let default = registry.build(DEFAULT_SESSION, registry.template.clone())?;
        registry.lock().insert(DEFAULT_SESSION.into(), default);
        Ok(registry)
    }

    /// A registry rebuilt from the journals in `journal_dir`: every
    /// journal with a valid header becomes a session whose core replayed
    /// the journaled history. Sessions without a journal (including the
    /// default, if its journal is missing) start fresh.
    pub fn recover(
        template: SessionConfig,
        journal_dir: &Path,
        metrics: Arc<ServiceMetrics>,
    ) -> Result<SessionRegistry, ServeError> {
        let registry = SessionRegistry {
            sessions: Mutex::new(HashMap::new()),
            template,
            journal_dir: Some(journal_dir.to_path_buf()),
            metrics,
        };
        for (name, path) in scan_dir(journal_dir).map_err(|e| ServeError::Io(e.to_string()))? {
            match journal::replay(&path)? {
                Some(recovered) => {
                    let session = registry.rebuild(&path, recovered)?;
                    registry.lock().insert(name, session);
                }
                // Headerless journals (truncated before the first sync)
                // describe sessions that never acknowledged anything;
                // nothing to recover.
                None => fairsched_obs::log::warn(format!(
                    "journal {} has no valid header; skipping",
                    path.display()
                )),
            }
        }
        if !registry.lock().contains_key(DEFAULT_SESSION) {
            let default = registry.build(DEFAULT_SESSION, registry.template.clone())?;
            registry.lock().insert(DEFAULT_SESSION.into(), default);
        }
        Ok(registry)
    }

    /// Replays one recovered journal into a fresh session. The replay
    /// runs under a manual clock regardless of the configured mode — a
    /// realtime clock tracks the wall and would outrun the journaled
    /// grant sequence, rejecting submissions the original run accepted.
    /// Once the history is re-applied the configured mode is adopted from
    /// the replayed horizon, and the journal reopens for append — only
    /// then, so the replay itself re-journals nothing.
    fn rebuild(
        &self,
        path: &Path,
        recovered: journal::RecoveredSession,
    ) -> Result<Arc<Session>, ServeError> {
        let configured_clock = recovered.config.clock;
        let mut cfg = recovered.config;
        cfg.clock = ClockMode::Manual;
        let session = Session::with_metrics(cfg, Arc::clone(&self.metrics))?;
        for event in recovered.events {
            match event {
                JournalEvent::Submit(req) => {
                    // Every journaled submission was accepted once, so it
                    // must replay cleanly; a rejection means the journal
                    // and core disagree — keep going, but say so.
                    if let Err(e) = session.submit_batched(&req) {
                        fairsched_obs::log::warn(format!(
                            "journal {}: job {} did not replay: {e}",
                            path.display(),
                            req.id
                        ));
                    }
                }
                JournalEvent::Grant(to) => {
                    session.advance_to(to)?;
                }
                JournalEvent::Seal => {
                    session.seal()?;
                }
            }
        }
        session.adopt_clock(configured_clock);
        if !session.status().sealed {
            let journal =
                SessionJournal::append(path).map_err(|e| ServeError::Io(e.to_string()))?;
            session.attach_journal(journal);
        }
        Ok(Arc::new(session))
    }

    /// Builds (and journals, when durability is on) one fresh session.
    fn build(&self, name: &str, cfg: SessionConfig) -> Result<Arc<Session>, ServeError> {
        let session = Session::with_metrics(cfg.clone(), Arc::clone(&self.metrics))?;
        if let Some(dir) = &self.journal_dir {
            let journal = SessionJournal::create(dir, name, &cfg)
                .map_err(|e| ServeError::Io(e.to_string()))?;
            session.attach_journal(journal);
        }
        Ok(Arc::new(session))
    }

    /// The named session, or [`ServeError::UnknownSession`].
    pub fn get(&self, name: &str) -> Result<Arc<Session>, ServeError> {
        self.lock()
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownSession { name: name.into() })
    }

    /// The session behind the unprefixed routes.
    pub fn default_session(&self) -> Arc<Session> {
        self.lock()
            .get(DEFAULT_SESSION)
            .cloned()
            .expect("the default session always exists")
    }

    /// Creates a named session; unset spec fields inherit the registry's
    /// template configuration.
    pub fn create(&self, spec: &SessionSpec) -> Result<Arc<Session>, ServeError> {
        if !valid_session_name(&spec.name) {
            return Err(ServeError::InvalidSessionName {
                name: spec.name.clone(),
            });
        }
        let mut cfg = self.template.clone();
        if let Some(policy) = &spec.policy {
            cfg.policy = policy.clone();
        }
        if let Some(nodes) = spec.nodes {
            cfg.nodes = nodes;
        }
        if let Some(id_floor) = spec.id_floor {
            cfg.id_floor = id_floor;
        }
        // Build outside the map lock (journal creation does IO), then
        // insert only if still absent — losing the race means the other
        // creator's session wins and ours (and its journal) is replaced.
        if self.lock().contains_key(&spec.name) {
            return Err(ServeError::DuplicateSession {
                name: spec.name.clone(),
            });
        }
        let session = self.build(&spec.name, cfg)?;
        let mut sessions = self.lock();
        if sessions.contains_key(&spec.name) {
            return Err(ServeError::DuplicateSession {
                name: spec.name.clone(),
            });
        }
        sessions.insert(spec.name.clone(), Arc::clone(&session));
        Ok(session)
    }

    /// Deletes a named session and its journal (so a later `--recover`
    /// does not resurrect it). The default session cannot be deleted.
    pub fn delete(&self, name: &str) -> Result<(), ServeError> {
        if name == DEFAULT_SESSION {
            return Err(ServeError::BadRequest {
                detail: "the default session cannot be deleted".into(),
            });
        }
        let session = self
            .lock()
            .remove(name)
            .ok_or_else(|| ServeError::UnknownSession { name: name.into() })?;
        // Seal so trace subscribers see a close rather than a hang;
        // already-sealed is fine.
        let _ = session.seal();
        if let Some(dir) = &self.journal_dir {
            let path = journal_path(dir, name);
            if let Err(e) = std::fs::remove_file(&path) {
                if e.kind() != std::io::ErrorKind::NotFound {
                    fairsched_obs::log::warn(format!(
                        "could not remove journal {}: {e}",
                        path.display()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Session names with their live status, sorted by name.
    pub fn list(&self) -> Vec<(String, StatusResponse)> {
        let sessions: Vec<(String, Arc<Session>)> = self
            .lock()
            .iter()
            .map(|(name, session)| (name.clone(), Arc::clone(session)))
            .collect();
        let mut rows: Vec<(String, StatusResponse)> = sessions
            .into_iter()
            .map(|(name, session)| {
                let status = session.status();
                (name, status)
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Every live session (for the heartbeat tick and graceful drain).
    pub fn sessions(&self) -> Vec<Arc<Session>> {
        self.lock().values().cloned().collect()
    }

    /// Seals every session that is not already sealed (daemon shutdown).
    pub fn seal_all(&self) {
        for session in self.sessions() {
            let _ = session.seal();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Session>>> {
        self.sessions.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SubmitRequest;

    fn template() -> SessionConfig {
        SessionConfig {
            policy: "easy.nomax".into(),
            nodes: 32,
            clock: ClockMode::Manual,
            ..Default::default()
        }
    }

    fn registry(dir: Option<&Path>) -> SessionRegistry {
        SessionRegistry::new(
            template(),
            dir.map(Path::to_path_buf),
            Arc::new(ServiceMetrics::new()),
        )
        .unwrap()
    }

    fn req(id: u32, submit: u64) -> SubmitRequest {
        SubmitRequest {
            id,
            user: 1,
            group: 1,
            submit,
            nodes: 4,
            runtime: 100,
            estimate: 100,
        }
    }

    #[test]
    fn the_default_session_always_exists_and_resists_deletion() {
        let reg = registry(None);
        reg.get(DEFAULT_SESSION).unwrap();
        assert!(matches!(
            reg.delete(DEFAULT_SESSION),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn sessions_are_independent_and_inherit_template_overrides() {
        let reg = registry(None);
        let spec = SessionSpec {
            name: "team-a".into(),
            policy: Some("fcfs.nobackfill".into()),
            nodes: Some(64),
            id_floor: None,
        };
        let a = reg.create(&spec).unwrap();
        assert_eq!(a.config().policy, "fcfs.nobackfill");
        assert_eq!(a.config().nodes, 64);
        a.submit_batched(&req(1, 0)).unwrap();
        // The default session never saw team-a's submission.
        assert_eq!(reg.default_session().status().accepted, 0);
        assert_eq!(a.status().accepted, 1);

        assert!(matches!(
            reg.create(&SessionSpec::named("team-a")),
            Err(ServeError::DuplicateSession { .. })
        ));
        assert!(matches!(
            reg.create(&SessionSpec::named("bad name!")),
            Err(ServeError::InvalidSessionName { .. })
        ));
        assert!(matches!(
            reg.get("nope"),
            Err(ServeError::UnknownSession { .. })
        ));

        reg.delete("team-a").unwrap();
        assert!(reg.get("team-a").is_err());
        assert_eq!(reg.list().len(), 1);
    }

    #[test]
    fn recovery_rebuilds_every_journaled_session_identically() {
        let dir = std::env::temp_dir().join(format!("fairsched-reg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // First life: two sessions, different policies, interleaved work.
        let reg = registry(Some(&dir));
        let b = reg
            .create(&SessionSpec {
                name: "burst".into(),
                policy: Some("cplant24.nomax.all".into()),
                nodes: None,
                id_floor: None,
            })
            .unwrap();
        let d = reg.default_session();
        d.submit_batched(&req(1, 0)).unwrap();
        b.submit_batched(&req(1, 0)).unwrap();
        d.submit_batched(&req(2, 10)).unwrap();
        d.advance_to(50).unwrap();
        b.submit_batched(&req(2, 20)).unwrap();
        // Simulate the crash: drop the registry without sealing.
        drop((reg, b, d));

        let reg2 =
            SessionRegistry::recover(template(), &dir, Arc::new(ServiceMetrics::new())).unwrap();
        let d2 = reg2.get(DEFAULT_SESSION).unwrap();
        let b2 = reg2.get("burst").unwrap();
        assert_eq!(d2.status().accepted, 2);
        assert_eq!(d2.status().granted, 50);
        assert_eq!(b2.status().accepted, 2);
        assert_eq!(b2.config().policy, "cplant24.nomax.all");

        // Recovered ids are still taken.
        assert!(matches!(
            d2.submit_batched(&req(2, 60)),
            Err(ServeError::DuplicateId { job }) if job.0 == 2
        ));
        // The recovered sessions keep working and journaling: more
        // submissions, then a second crash and recovery.
        d2.submit_batched(&req(3, 60)).unwrap();
        drop((reg2, d2, b2));
        let reg3 =
            SessionRegistry::recover(template(), &dir, Arc::new(ServiceMetrics::new())).unwrap();
        let d3 = reg3.get(DEFAULT_SESSION).unwrap();
        assert_eq!(d3.status().accepted, 3);
        let sealed = d3.seal().unwrap();

        // Reference: the same submissions against a fresh session.
        let fresh = registry(None).default_session();
        fresh.submit_batched(&req(1, 0)).unwrap();
        fresh.submit_batched(&req(2, 10)).unwrap();
        fresh.advance_to(50).unwrap();
        fresh.submit_batched(&req(3, 60)).unwrap();
        let reference = fresh.seal().unwrap();
        assert_eq!(sealed.schedule_fnv, reference.schedule_fnv);
        assert_eq!(d3.schedule(), fresh.schedule());

        // A sealed session's journal recovers as sealed.
        let reg4 =
            SessionRegistry::recover(template(), &dir, Arc::new(ServiceMetrics::new())).unwrap();
        assert!(reg4.get(DEFAULT_SESSION).unwrap().status().sealed);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

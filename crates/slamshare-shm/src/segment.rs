//! Named segment registry.
//!
//! In the paper an orchestrator process creates the shared-memory segment;
//! each client process then *finds and attaches* it by name ("when
//! Process A on the server starts, it searches and attaches the shared
//! memory buffer to its own virtual address space"). [`Segment`] is that
//! rendezvous: named objects, attach-by-name, and capacity accounting via
//! the [`Arena`].

use crate::arena::Arena;
use parking_lot::RwLock;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Errors from segment operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// `attach` on a name nobody created.
    NotFound(String),
    /// `create` on a name that already exists.
    AlreadyExists(String),
    /// The named object exists but with a different type.
    WrongType(String),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::NotFound(n) => write!(f, "no shared object named {n:?}"),
            SegmentError::AlreadyExists(n) => write!(f, "shared object {n:?} already exists"),
            SegmentError::WrongType(n) => write!(f, "shared object {n:?} has a different type"),
        }
    }
}

impl std::error::Error for SegmentError {}

/// A shared-memory segment: a capacity-bounded arena plus a name → object
/// registry.
pub struct Segment {
    pub arena: Arena,
    objects: RwLock<HashMap<String, Arc<dyn Any + Send + Sync>>>,
}

impl Segment {
    pub fn new(capacity: usize) -> Segment {
        Segment {
            arena: Arena::new(capacity),
            objects: RwLock::new(HashMap::new()),
        }
    }

    /// The orchestrator's 2 GB segment.
    pub fn paper_default() -> Segment {
        Segment {
            arena: Arena::paper_default(),
            objects: RwLock::new(HashMap::new()),
        }
    }

    /// Create a named object (orchestrator side).
    pub fn create<T: Send + Sync + 'static>(
        &self,
        name: &str,
        value: T,
    ) -> Result<Arc<T>, SegmentError> {
        let mut objects = self.objects.write();
        if objects.contains_key(name) {
            return Err(SegmentError::AlreadyExists(name.to_string()));
        }
        let arc = Arc::new(value);
        objects.insert(name.to_string(), arc.clone());
        Ok(arc)
    }

    /// Attach to an existing named object (client-process side).
    pub fn attach<T: Send + Sync + 'static>(&self, name: &str) -> Result<Arc<T>, SegmentError> {
        let objects = self.objects.read();
        let obj = objects
            .get(name)
            .ok_or_else(|| SegmentError::NotFound(name.to_string()))?;
        obj.clone()
            .downcast::<T>()
            .map_err(|_| SegmentError::WrongType(name.to_string()))
    }

    /// Create, or attach when it already exists.
    pub fn create_or_attach<T: Send + Sync + 'static>(
        &self,
        name: &str,
        make: impl FnOnce() -> T,
    ) -> Result<Arc<T>, SegmentError> {
        {
            let objects = self.objects.read();
            if let Some(obj) = objects.get(name) {
                return obj
                    .clone()
                    .downcast::<T>()
                    .map_err(|_| SegmentError::WrongType(name.to_string()));
            }
        }
        let mut objects = self.objects.write();
        // Double-checked under the write lock.
        if let Some(obj) = objects.get(name) {
            return obj
                .clone()
                .downcast::<T>()
                .map_err(|_| SegmentError::WrongType(name.to_string()));
        }
        let arc = Arc::new(make());
        objects.insert(name.to_string(), arc.clone());
        Ok(arc)
    }

    pub fn object_count(&self) -> usize {
        self.objects.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_mutex::SharedMutex;

    #[test]
    fn create_then_attach() {
        let seg = Segment::new(1024);
        seg.create("global-map", SharedMutex::new(vec![1, 2, 3]))
            .unwrap();
        let attached: Arc<SharedMutex<Vec<i32>>> = seg.attach("global-map").unwrap();
        assert_eq!(attached.with_read(|v| v.clone()), vec![1, 2, 3]);
    }

    #[test]
    fn attach_missing_fails() {
        let seg = Segment::new(1024);
        let r: Result<Arc<u32>, _> = seg.attach("nope");
        assert_eq!(r.unwrap_err(), SegmentError::NotFound("nope".into()));
    }

    #[test]
    fn double_create_fails() {
        let seg = Segment::new(1024);
        seg.create("x", 1u32).unwrap();
        assert_eq!(
            seg.create("x", 2u32).unwrap_err(),
            SegmentError::AlreadyExists("x".into())
        );
    }

    #[test]
    fn wrong_type_detected() {
        let seg = Segment::new(1024);
        seg.create("x", 1u32).unwrap();
        let r: Result<Arc<String>, _> = seg.attach("x");
        assert_eq!(r.unwrap_err(), SegmentError::WrongType("x".into()));
    }

    #[test]
    fn attachments_share_state() {
        // Two "processes" attach the same named object; writes through one
        // are visible through the other — the zero-copy sharing contract.
        let seg = Segment::new(1024);
        seg.create("m", SharedMutex::new(0u64)).unwrap();
        let a: Arc<SharedMutex<u64>> = seg.attach("m").unwrap();
        let b: Arc<SharedMutex<u64>> = seg.attach("m").unwrap();
        a.with_write(|v| *v = 99);
        assert_eq!(b.with_read(|v| *v), 99);
    }

    #[test]
    fn create_or_attach_races_safely() {
        let seg = Arc::new(Segment::new(1024));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let seg = seg.clone();
            handles.push(std::thread::spawn(move || {
                let obj = seg
                    .create_or_attach("counter", || SharedMutex::new(0u32))
                    .unwrap();
                obj.with_write(|v| *v += 1);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let obj: Arc<SharedMutex<u32>> = seg.attach("counter").unwrap();
        assert_eq!(
            obj.with_read(|v| *v),
            8,
            "creations raced into separate objects"
        );
        assert_eq!(seg.object_count(), 1);
    }
}

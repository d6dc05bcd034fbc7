//! User views (Section II): partitions of a specification's modules into
//! composite modules.

use crate::error::{ModelError, Result};
use crate::ids::CompositeId;
use crate::spec::WorkflowSpec;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use zoom_graph::NodeId;

/// A composite module: a named, nonempty set of specification modules.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompositeModule {
    /// Display name, e.g. `"M10"` or `"Run alignment"`.
    pub name: String,
    /// Member modules, sorted by node id.
    pub members: Vec<NodeId>,
}

impl CompositeModule {
    /// Creates a composite, sorting and deduplicating the members.
    pub fn new(name: impl Into<String>, mut members: Vec<NodeId>) -> Self {
        members.sort();
        members.dedup();
        CompositeModule {
            name: name.into(),
            members,
        }
    }

    /// Returns `true` if this composite contains exactly one module.
    pub fn is_singleton(&self) -> bool {
        self.members.len() == 1
    }
}

/// A user view `U` of a workflow specification: a partition of its modules
/// (excluding input and output) into composite modules.
///
/// The *size* of the view, `|U|`, is the number of composite modules — e.g.
/// Joe's view of the paper's phylogenomic workflow has size 4 and Mary's
/// size 5.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UserView {
    name: String,
    spec_name: String,
    composites: Vec<CompositeModule>,
    /// Which composite contains each module.
    of_module: ModuleIndex,
}

/// Marks the specification nodes no composite contains.
const NO_COMPOSITE: u32 = u32::MAX;

/// A dense `module → composite` index: entry `m` is the composite holding
/// specification node `m` ([`NO_COMPOSITE`] for the input and output
/// nodes). Encoded as the `NodeId → CompositeId` map it replaces, so stored
/// views keep their bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ModuleIndex(Vec<u32>);

impl Serialize for ModuleIndex {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::SerializeMap;
        let entries = self
            .0
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != NO_COMPOSITE);
        let mut map = serializer.serialize_map(Some(entries.clone().count()))?;
        for (m, &c) in entries {
            map.serialize_entry(&NodeId::from_index(m), &CompositeId(c))?;
        }
        map.end()
    }
}

impl<'de> Deserialize<'de> for ModuleIndex {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        let map = HashMap::<NodeId, CompositeId>::deserialize(deserializer)?;
        // A specification's modules are nodes 2..modules + 2, so a map of
        // `len` entries names nodes below `len + 2`. Bounding the index
        // this way keeps doctored bytes from sizing the array.
        let mut index = vec![NO_COMPOSITE; map.len() + 2];
        for (m, c) in map {
            *index.get_mut(m.index()).ok_or_else(|| {
                serde::de::Error::custom(format!("member index names {m:?}, beyond its modules"))
            })? = c.0;
        }
        Ok(ModuleIndex(index))
    }
}

impl UserView {
    /// Builds a view from named composites, validating that they partition
    /// the specification's modules.
    pub fn new(
        name: impl Into<String>,
        spec: &WorkflowSpec,
        composites: Vec<CompositeModule>,
    ) -> Result<Self> {
        let mut of_module = ModuleIndex(vec![NO_COMPOSITE; spec.graph().node_count()]);
        let mut covered = 0;
        let mut names: HashMap<&str, ()> = HashMap::new();
        for (i, c) in composites.iter().enumerate() {
            if c.members.is_empty() {
                return Err(ModelError::EmptyComposite(c.name.clone()));
            }
            if names.insert(&c.name, ()).is_some() {
                return Err(ModelError::DuplicateComposite(c.name.clone()));
            }
            for &m in &c.members {
                // Decoded views reach here too: bound the node id first.
                if m.index() >= of_module.0.len() || !spec.is_module(m) {
                    return Err(ModelError::NotAPartition(format!(
                        "composite `{}` contains non-module node {m:?}",
                        c.name
                    )));
                }
                if of_module.0[m.index()] != NO_COMPOSITE {
                    return Err(ModelError::NotAPartition(format!(
                        "module `{}` appears in two composites",
                        spec.label(m)
                    )));
                }
                of_module.0[m.index()] = i as u32;
                covered += 1;
            }
        }
        if covered != spec.module_count() {
            let missing = spec
                .module_ids()
                .find(|m| of_module.0[m.index()] == NO_COMPOSITE)
                .expect("some module uncovered");
            return Err(ModelError::NotAPartition(format!(
                "module `{}` is not covered by any composite",
                spec.label(missing)
            )));
        }
        Ok(UserView {
            name: name.into(),
            spec_name: spec.name().to_string(),
            composites,
            of_module,
        })
    }

    /// The finest view: one singleton composite per module (the paper's
    /// *UAdmin*, "each step class is relevant — no composite modules").
    pub fn admin(spec: &WorkflowSpec) -> Self {
        let composites = spec
            .module_ids()
            .map(|m| CompositeModule::new(spec.label(m).to_string(), vec![m]))
            .collect();
        UserView::new("UAdmin", spec, composites).expect("admin view is always a valid partition")
    }

    /// The coarsest view: one composite containing the entire workflow (the
    /// paper's *UBlackBox*).
    pub fn black_box(spec: &WorkflowSpec) -> Self {
        let composites = vec![CompositeModule::new(
            format!("{}-blackbox", spec.name()),
            spec.module_ids().collect(),
        )];
        UserView::new("UBlackBox", spec, composites)
            .expect("black-box view is always a valid partition")
    }

    /// The view's name (e.g. `"UAdmin"`, `"Joe"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name of the specification this view partitions.
    pub fn spec_name(&self) -> &str {
        &self.spec_name
    }

    /// `|U|`: the number of composite modules.
    pub fn size(&self) -> usize {
        self.composites.len()
    }

    /// The composite modules, in id order.
    pub fn composites(&self) -> &[CompositeModule] {
        &self.composites
    }

    /// The composite containing module `m` — the paper's `C(n)`.
    ///
    /// # Panics
    /// Panics if `m` is not a module of the underlying specification.
    pub fn composite_of(&self, m: NodeId) -> CompositeId {
        self.try_composite_of(m)
            .unwrap_or_else(|| panic!("{m:?} is not a module of `{}`", self.spec_name))
    }

    /// The composite containing `m`, or `None` for unknown nodes
    /// (input/output).
    #[inline]
    pub fn try_composite_of(&self, m: NodeId) -> Option<CompositeId> {
        match self.of_module.0.get(m.index()) {
            Some(&c) if c != NO_COMPOSITE => Some(CompositeId(c)),
            _ => None,
        }
    }

    /// The members of composite `c`.
    pub fn members(&self, c: CompositeId) -> &[NodeId] {
        &self.composites[c.index()].members
    }

    /// The name of composite `c`.
    pub fn composite_name(&self, c: CompositeId) -> &str {
        &self.composites[c.index()].name
    }

    /// Iterates over composite ids.
    pub fn composite_ids(&self) -> impl ExactSizeIterator<Item = CompositeId> {
        (0..self.composites.len()).map(|i| CompositeId(i as u32))
    }

    /// Re-validates a deserialized view against `spec`.
    ///
    /// Snapshot/journal bytes bypass [`UserView::new`], so a stored view
    /// must be re-checked before it reaches query time: the composites must
    /// partition `spec`'s modules, and the serialized member→composite
    /// index must agree with the composites (a doctored index would
    /// silently change visibility).
    pub fn validate(&self, spec: &WorkflowSpec) -> Result<()> {
        if self.spec_name != spec.name() {
            return Err(ModelError::SpecMismatch(format!(
                "view `{}` is of `{}`, spec is `{}`",
                self.name,
                self.spec_name,
                spec.name()
            )));
        }
        let rebuilt = UserView::new(self.name.clone(), spec, self.composites.clone())?;
        if rebuilt.of_module != self.of_module {
            return Err(ModelError::NotAPartition(format!(
                "view `{}`: member index diverges from its composites",
                self.name
            )));
        }
        Ok(())
    }

    /// Property 1 (well-formedness): every composite contains at most one
    /// module from `relevant`.
    pub fn is_well_formed(&self, relevant: &[NodeId]) -> bool {
        self.composites
            .iter()
            .all(|c| c.members.iter().filter(|m| relevant.contains(m)).count() <= 1)
    }

    /// Returns `true` if every composite of `self` is contained in some
    /// composite of `other` (i.e. `self` is a refinement of `other`).
    ///
    /// UAdmin refines every view; every view refines UBlackBox.
    pub fn refines(&self, other: &UserView) -> bool {
        self.composites.iter().all(|c| {
            let Some(target) = other.try_composite_of(c.members[0]) else {
                return false;
            };
            c.members
                .iter()
                .all(|&m| other.try_composite_of(m) == Some(target))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;

    fn spec() -> WorkflowSpec {
        let mut b = SpecBuilder::new("s");
        b.analysis("A");
        b.analysis("B");
        b.analysis("C");
        b.from_input("A")
            .edge("A", "B")
            .edge("B", "C")
            .to_output("C");
        b.build().unwrap()
    }

    #[test]
    fn admin_and_blackbox() {
        let s = spec();
        let admin = UserView::admin(&s);
        assert_eq!(admin.size(), 3);
        assert!(admin.composites().iter().all(CompositeModule::is_singleton));
        let bb = UserView::black_box(&s);
        assert_eq!(bb.size(), 1);
        assert_eq!(bb.members(CompositeId(0)).len(), 3);
        assert!(admin.refines(&bb));
        assert!(!bb.refines(&admin));
        assert!(admin.refines(&admin));
    }

    #[test]
    fn custom_partition() {
        let s = spec();
        let (a, b, c) = (
            s.module("A").unwrap(),
            s.module("B").unwrap(),
            s.module("C").unwrap(),
        );
        let v = UserView::new(
            "v",
            &s,
            vec![
                CompositeModule::new("AB", vec![b, a]),
                CompositeModule::new("C", vec![c]),
            ],
        )
        .unwrap();
        assert_eq!(v.size(), 2);
        assert_eq!(v.composite_of(a), v.composite_of(b));
        assert_ne!(v.composite_of(a), v.composite_of(c));
        // Members are sorted.
        assert_eq!(v.members(CompositeId(0)), &[a, b]);
        assert_eq!(v.composite_name(CompositeId(0)), "AB");
        assert!(v.try_composite_of(s.input()).is_none());
    }

    #[test]
    fn overlap_rejected() {
        let s = spec();
        let (a, b, c) = (
            s.module("A").unwrap(),
            s.module("B").unwrap(),
            s.module("C").unwrap(),
        );
        let err = UserView::new(
            "v",
            &s,
            vec![
                CompositeModule::new("X", vec![a, b]),
                CompositeModule::new("Y", vec![b, c]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::NotAPartition(_)));
    }

    #[test]
    fn uncovered_module_rejected() {
        let s = spec();
        let a = s.module("A").unwrap();
        let err = UserView::new("v", &s, vec![CompositeModule::new("X", vec![a])]).unwrap_err();
        assert!(matches!(err, ModelError::NotAPartition(_)));
    }

    #[test]
    fn special_nodes_rejected() {
        let s = spec();
        let err = UserView::new(
            "v",
            &s,
            vec![CompositeModule::new(
                "X",
                vec![s.input(), s.module("A").unwrap()],
            )],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::NotAPartition(_)));
    }

    #[test]
    fn unknown_nodes_rejected() {
        let s = spec();
        let stranger = NodeId::from_index(1000);
        let err = UserView::new("v", &s, vec![CompositeModule::new("X", vec![stranger])]);
        assert!(matches!(err, Err(ModelError::NotAPartition(_))));
    }

    #[test]
    fn empty_composite_rejected() {
        let s = spec();
        let err = UserView::new("v", &s, vec![CompositeModule::new("X", vec![])]).unwrap_err();
        assert_eq!(err, ModelError::EmptyComposite("X".into()));
    }

    #[test]
    fn duplicate_names_rejected() {
        let s = spec();
        let (a, b, c) = (
            s.module("A").unwrap(),
            s.module("B").unwrap(),
            s.module("C").unwrap(),
        );
        let err = UserView::new(
            "v",
            &s,
            vec![
                CompositeModule::new("X", vec![a, b]),
                CompositeModule::new("X", vec![c]),
            ],
        )
        .unwrap_err();
        assert_eq!(err, ModelError::DuplicateComposite("X".into()));
    }

    #[test]
    fn validate_accepts_built_views_and_rejects_doctored_ones() {
        let s = spec();
        let admin = UserView::admin(&s);
        admin.validate(&s).unwrap();
        UserView::black_box(&s).validate(&s).unwrap();

        // Same view against a different spec (name mismatch).
        let mut b = SpecBuilder::new("other");
        b.analysis("A");
        b.from_input("A").to_output("A");
        let other = b.build().unwrap();
        assert!(matches!(
            admin.validate(&other),
            Err(ModelError::SpecMismatch(_))
        ));

        // A view built against a *different* spec that shares the name: the
        // partition does not cover this spec's modules.
        let mut b = SpecBuilder::new("s");
        b.analysis("A");
        b.from_input("A").to_output("A");
        let impostor_spec = b.build().unwrap();
        let impostor = UserView::admin(&impostor_spec);
        assert_eq!(impostor.spec_name(), "s");
        assert!(matches!(
            impostor.validate(&s),
            Err(ModelError::NotAPartition(_))
        ));

        // A doctored member index (as decoded bytes could carry) diverging
        // from the composites.
        let mut doctored = UserView::black_box(&s);
        let a = s.module("A").unwrap();
        let b_mod = s.module("B").unwrap();
        doctored.of_module.0[a.index()] = doctored.of_module.0[b_mod.index()] + 1;
        assert!(matches!(
            doctored.validate(&s),
            Err(ModelError::NotAPartition(_))
        ));
    }

    #[test]
    fn well_formedness() {
        let s = spec();
        let (a, b, c) = (
            s.module("A").unwrap(),
            s.module("B").unwrap(),
            s.module("C").unwrap(),
        );
        let v = UserView::new(
            "v",
            &s,
            vec![
                CompositeModule::new("AB", vec![a, b]),
                CompositeModule::new("C", vec![c]),
            ],
        )
        .unwrap();
        assert!(v.is_well_formed(&[a, c]));
        assert!(!v.is_well_formed(&[a, b]));
        assert!(v.is_well_formed(&[]));
    }
}

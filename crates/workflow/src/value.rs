//! The Arc-shared value model.
//!
//! Values crossing step boundaries used to be `(DataFormat, serde_json::Value)`
//! pairs that were deep-cloned at every boundary: runtime → executor,
//! executor → dependent step, runtime cache → caller. A [`Value`] instead
//! carries its payload behind an `Arc`, so sharing a mapping table with
//! twelve dependent steps is twelve pointer bumps, not twelve tree clones.
//!
//! Payloads come in two flavours:
//!
//! * **JSON** — the interchange fallback, `Arc<serde_json::Value>`; this is
//!   what constants, query arguments and deserialized values use;
//! * **native artifacts** — a typed substrate object (mapping table, BGP
//!   update stream, impact table, …) stored as-is behind
//!   `Arc<dyn Artifact>`, with its JSON projection materialized lazily and
//!   cached the first time something actually needs JSON (QA reports,
//!   serialization, cross-type deserialization).
//!
//! Consumers that know the concrete type get the artifact back by
//! reference with [`Value::native_ref`] / [`Value::view`] — no
//! serialize/clone/deserialize round-trip. Consumers that do not fall back
//! to the JSON projection transparently.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use registry::DataFormat;

/// A typed payload that can live natively inside a [`Value`].
///
/// Implementations project to JSON on demand (for interchange, QA and
/// serialization) and report structural emptiness without projecting.
pub trait Artifact: Any + Send + Sync {
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// The JSON projection (computed lazily, cached by [`Value`]).
    fn to_json(&self) -> serde_json::Value;
    /// Whether the JSON projection would be structurally empty (mirrors
    /// [`Value::is_empty_payload`] on the JSON side).
    fn is_empty(&self) -> bool;
}

/// The standard [`Artifact`] wrapper [`Value::native`] stores: any
/// serializable type plus its producer-computed emptiness flag.
struct NativeArtifact<T> {
    value: T,
    empty: bool,
}

impl<T: serde::Serialize + Send + Sync + 'static> Artifact for NativeArtifact<T> {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn to_json(&self) -> serde_json::Value {
        self.value.serialize_json()
    }

    fn is_empty(&self) -> bool {
        self.empty
    }
}

/// The payload representations.
#[derive(Clone)]
enum Payload {
    /// Plain JSON, Arc-shared.
    Json(Arc<serde_json::Value>),
    /// A native artifact plus its lazily cached JSON projection. The cache
    /// is shared across clones, so a value projected once stays projected.
    Native { artifact: Arc<dyn Artifact>, json: Arc<OnceLock<serde_json::Value>> },
}

/// A value flowing between steps: a declared [`DataFormat`] plus an
/// Arc-shared payload. Cloning is cheap (pointer bumps) regardless of
/// payload size.
#[derive(Clone)]
pub struct Value {
    pub format: DataFormat,
    payload: Payload,
}

/// Borrowed-or-owned view of a value as a concrete type; see
/// [`Value::view`].
pub enum ValueView<'a, T> {
    /// The value holds the artifact natively — borrowed, zero-copy.
    Shared(&'a T),
    /// Deserialized from the JSON payload.
    Owned(T),
}

impl<T> std::ops::Deref for ValueView<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            ValueView::Shared(v) => v,
            ValueView::Owned(v) => v,
        }
    }
}

impl Value {
    /// A JSON value.
    pub fn new(format: DataFormat, value: serde_json::Value) -> Value {
        Value { format, payload: Payload::Json(Arc::new(value)) }
    }

    /// A native artifact value. `empty` must mirror what
    /// [`Value::is_empty_payload`] would say about the JSON projection
    /// (structs project to non-empty objects; pass `v.is_empty()` for
    /// sequence-shaped artifacts).
    pub fn native<T: serde::Serialize + Send + Sync + 'static>(
        format: DataFormat,
        value: T,
        empty: bool,
    ) -> Value {
        Value {
            format,
            payload: Payload::Native {
                artifact: Arc::new(NativeArtifact { value, empty }),
                json: Arc::new(OnceLock::new()),
            },
        }
    }

    /// A text value.
    pub fn text(s: &str) -> Value {
        Value::new(DataFormat::Text, serde_json::Value::String(s.to_string()))
    }

    /// Whether the payload is held as a native artifact (no JSON
    /// projection unless someone asked for one).
    pub fn is_native(&self) -> bool {
        matches!(self.payload, Payload::Native { .. })
    }

    /// The JSON projection, by reference. For native artifacts this
    /// materializes (and caches) the projection on first use.
    pub fn json(&self) -> &serde_json::Value {
        match &self.payload {
            Payload::Json(v) => v,
            Payload::Native { artifact, json } => json.get_or_init(|| artifact.to_json()),
        }
    }

    /// Borrows the native artifact as `T`, if this value holds one of
    /// exactly that type.
    pub fn native_ref<T: 'static>(&self) -> Option<&T> {
        match &self.payload {
            Payload::Native { artifact, .. } => {
                artifact.as_any().downcast_ref::<NativeArtifact<T>>().map(|n| &n.value)
            }
            Payload::Json(_) => None,
        }
    }

    /// Views the value as a `T`: zero-copy when the value natively holds a
    /// `T`, deserialized from the JSON projection otherwise.
    pub fn view<T: serde::de::DeserializeOwned + 'static>(
        &self,
    ) -> Result<ValueView<'_, T>, serde::Error> {
        if let Some(v) = self.native_ref::<T>() {
            return Ok(ValueView::Shared(v));
        }
        T::deserialize_json(self.json()).map(ValueView::Owned)
    }

    /// Parses the value into an owned `T` (native fast path: one clone of
    /// the artifact; JSON fallback: one deserialization).
    pub fn parse<T: serde::de::DeserializeOwned + Clone + 'static>(
        &self,
    ) -> Result<T, serde::Error> {
        if let Some(v) = self.native_ref::<T>() {
            return Ok(v.clone());
        }
        T::deserialize_json(self.json())
    }

    /// Whether the payload is structurally empty (empty array/object/null
    /// for JSON; the artifact's own emptiness for native payloads).
    pub fn is_empty_payload(&self) -> bool {
        match &self.payload {
            Payload::Json(v) => json_is_empty(v),
            Payload::Native { artifact, .. } => artifact.is_empty(),
        }
    }
}

fn json_is_empty(v: &serde_json::Value) -> bool {
    match v {
        serde_json::Value::Null => true,
        serde_json::Value::Array(a) => a.is_empty(),
        serde_json::Value::Object(o) => o.is_empty(),
        serde_json::Value::String(s) => s.is_empty(),
        _ => false,
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Value")
            .field("format", &self.format)
            .field("value", &self.json().to_json_string())
            .finish()
    }
}

// Equality compares JSON projections: two values are equal when they carry
// the same format and would serialize identically, however they are held.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.format == other.format && self.json() == other.json()
    }
}

// Serialization matches the old derived `{ "format": ..., "value": ... }`
// shape, so persisted workflows and transcripts keep their format.
impl serde::Serialize for Value {
    fn serialize_json(&self) -> serde_json::Value {
        let mut obj = BTreeMap::new();
        obj.insert("format".to_string(), self.format.serialize_json());
        obj.insert("value".to_string(), self.json().clone());
        serde_json::Value::Object(obj)
    }
}

impl serde::Deserialize for Value {
    fn deserialize_json(v: &serde_json::Value) -> Result<Self, serde::Error> {
        let obj = match v {
            serde_json::Value::Object(m) => m,
            _ => return Err(serde::Error::msg("expected value object")),
        };
        let format = obj
            .get("format")
            .ok_or_else(|| serde::Error::msg("missing field format"))
            .and_then(DataFormat::deserialize_json)?;
        let value =
            obj.get("value").cloned().ok_or_else(|| serde::Error::msg("missing field value"))?;
        Ok(Value::new(format, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Table {
        rows: Vec<i64>,
    }

    #[test]
    fn json_values_roundtrip() {
        let v = Value::new(DataFormat::Scalar, serde_json::json!(42));
        let json = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
        assert!(!v.is_native());
    }

    #[test]
    fn native_projects_lazily_and_views_zero_copy() {
        let v = Value::native(DataFormat::Table, Table { rows: vec![1, 2, 3] }, false);
        assert!(v.is_native());
        // Zero-copy borrow of the native artifact.
        let borrowed = v.native_ref::<Table>().expect("native");
        assert_eq!(borrowed.rows, vec![1, 2, 3]);
        // The view API takes the shared path.
        let view = v.view::<Table>().unwrap();
        assert!(matches!(view, ValueView::Shared(_)));
        assert_eq!(view.rows.len(), 3);
        // JSON projection materializes on demand and matches serde.
        assert_eq!(v.json(), &serde_json::json!({"rows": [1, 2, 3]}));
    }

    #[test]
    fn view_falls_back_to_json() {
        let v = Value::new(DataFormat::Table, serde_json::json!({"rows": [7]}));
        let view = v.view::<Table>().unwrap();
        assert!(matches!(view, ValueView::Owned(_)));
        assert_eq!(view.rows, vec![7]);
    }

    #[test]
    fn native_and_json_compare_equal_via_projection() {
        let native = Value::native(DataFormat::Table, Table { rows: vec![5] }, false);
        let json = Value::new(DataFormat::Table, serde_json::json!({"rows": [5]}));
        assert_eq!(native, json);
    }

    #[test]
    fn emptiness_mirrors_json_semantics() {
        assert!(Value::new(DataFormat::Table, serde_json::json!([])).is_empty_payload());
        assert!(Value::new(DataFormat::Any, serde_json::Value::Null).is_empty_payload());
        assert!(!Value::new(DataFormat::Scalar, serde_json::json!(0)).is_empty_payload());
        assert!(Value::native(DataFormat::BgpUpdates, Vec::<i64>::new(), true).is_empty_payload());
        assert!(!Value::native(DataFormat::Table, Table { rows: vec![] }, false)
            .is_empty_payload());
    }

    #[test]
    fn clones_share_the_projection_cache() {
        let v = Value::native(DataFormat::Table, Table { rows: vec![9] }, false);
        let clone = v.clone();
        // Project through the clone, read through the original.
        let _ = clone.json();
        assert_eq!(v.json(), &serde_json::json!({"rows": [9]}));
    }

    #[test]
    fn serialization_shape_is_stable() {
        let v = Value::native(DataFormat::Table, Table { rows: vec![1] }, false);
        let json = serde_json::to_value(&v).unwrap();
        assert_eq!(json.get("format"), Some(&serde_json::json!("Table")));
        assert!(json.get("value").is_some());
    }
}

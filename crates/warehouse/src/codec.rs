//! A compact binary serde format for warehouse snapshots.
//!
//! The workspace's crate budget does not include a serde binary format, so
//! this module implements one: little-endian fixed-width integers,
//! `u64`-length-prefixed strings/sequences/maps, and `u32` variant indices
//! for enums. The format is *not* self-describing — `deserialize_any` is
//! unsupported — which is fine for the `#[derive]`d model types the
//! warehouse persists.

use bytes::{Buf, BufMut, Bytes};
use serde::de::{self, DeserializeSeed, IntoDeserializer, Visitor};
use serde::{ser, Deserialize, Serialize};
use std::fmt;

/// Errors from encoding or decoding.
#[derive(Debug)]
pub enum CodecError {
    /// A custom message from serde.
    Message(String),
    /// Ran out of input bytes.
    Eof,
    /// A length prefix or tag was invalid.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Message(m) => write!(f, "{m}"),
            CodecError::Eof => write!(f, "unexpected end of input"),
            CodecError::Invalid(w) => write!(f, "invalid encoding: {w}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl ser::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Message(msg.to_string())
    }
}

impl de::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Message(msg.to_string())
    }
}

/// Serializes `value` to bytes.
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Bytes, CodecError> {
    let mut out = Vec::with_capacity(256);
    encode_into(&mut out, value)?;
    Ok(out.into())
}

/// Serializes `value` onto the end of `out`, so a caller can encode behind
/// a header it has already written, without a second copy. On error `out`
/// keeps what was written before the failing field.
pub fn encode_into<T: Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> Result<(), CodecError> {
    let mut ser = Encoder {
        out: std::mem::take(out),
    };
    let done = value.serialize(&mut ser);
    *out = ser.out;
    done
}

/// Deserializes a `T` from bytes (trailing bytes are an error).
pub fn from_bytes<'a, T: Deserialize<'a>>(bytes: &'a [u8]) -> Result<T, CodecError> {
    let mut de = Decoder { input: bytes };
    let v = T::deserialize(&mut de)?;
    if !de.input.is_empty() {
        return Err(CodecError::Invalid("trailing bytes"));
    }
    Ok(v)
}

struct Encoder {
    out: Vec<u8>,
}

impl Encoder {
    fn put_len(&mut self, len: usize) {
        self.out.put_u64_le(len as u64);
    }
}

impl ser::Serializer for &mut Encoder {
    type Ok = ();
    type Error = CodecError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<(), CodecError> {
        self.out.put_u8(u8::from(v));
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<(), CodecError> {
        self.out.put_i8(v);
        Ok(())
    }
    fn serialize_i16(self, v: i16) -> Result<(), CodecError> {
        self.out.put_i16_le(v);
        Ok(())
    }
    fn serialize_i32(self, v: i32) -> Result<(), CodecError> {
        self.out.put_i32_le(v);
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<(), CodecError> {
        self.out.put_i64_le(v);
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), CodecError> {
        self.out.put_u8(v);
        Ok(())
    }
    fn serialize_u16(self, v: u16) -> Result<(), CodecError> {
        self.out.put_u16_le(v);
        Ok(())
    }
    fn serialize_u32(self, v: u32) -> Result<(), CodecError> {
        self.out.put_u32_le(v);
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<(), CodecError> {
        self.out.put_u64_le(v);
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), CodecError> {
        self.out.put_f32_le(v);
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<(), CodecError> {
        self.out.put_f64_le(v);
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), CodecError> {
        self.out.put_u32_le(v as u32);
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<(), CodecError> {
        self.put_len(v.len());
        self.out.put_slice(v.as_bytes());
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), CodecError> {
        self.put_len(v.len());
        self.out.put_slice(v);
        Ok(())
    }
    fn serialize_none(self) -> Result<(), CodecError> {
        self.out.put_u8(0);
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CodecError> {
        self.out.put_u8(1);
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), CodecError> {
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), CodecError> {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), CodecError> {
        self.out.put_u32_le(variant_index);
        Ok(())
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        self.out.put_u32_le(variant_index);
        value.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or(CodecError::Invalid("sequence of unknown length"))?;
        self.put_len(len);
        Ok(self)
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.out.put_u32_le(variant_index);
        Ok(self)
    }
    fn serialize_map(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or(CodecError::Invalid("map of unknown length"))?;
        self.put_len(len);
        Ok(self)
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.out.put_u32_le(variant_index);
        Ok(self)
    }
}

macro_rules! impl_compound_ser {
    ($trait:path, $method:ident $(, $key_method:ident)?) => {
        impl $trait for &mut Encoder {
            type Ok = ();
            type Error = CodecError;
            $(
                fn $key_method<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), CodecError> {
                    key.serialize(&mut **self)
                }
            )?
            fn $method<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), CodecError> {
                Ok(())
            }
        }
    };
}

impl_compound_ser!(ser::SerializeSeq, serialize_element);
impl_compound_ser!(ser::SerializeTuple, serialize_element);
impl_compound_ser!(ser::SerializeTupleStruct, serialize_field);
impl_compound_ser!(ser::SerializeTupleVariant, serialize_field);
impl_compound_ser!(ser::SerializeMap, serialize_value, serialize_key);

impl ser::SerializeStruct for &mut Encoder {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeStructVariant for &mut Encoder {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

struct Decoder<'de> {
    input: &'de [u8],
}

impl<'de> Decoder<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], CodecError> {
        if self.input.len() < n {
            return Err(CodecError::Eof);
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    fn get_len(&mut self) -> Result<usize, CodecError> {
        let mut b = self.take(8)?;
        let len = b.get_u64_le();
        usize::try_from(len).map_err(|_| CodecError::Invalid("length overflows usize"))
    }
}

macro_rules! de_num {
    ($fn_name:ident, $visit:ident, $n:expr, $get:ident) => {
        fn $fn_name<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
            let mut b = self.take($n)?;
            visitor.$visit(b.$get())
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut Decoder<'de> {
    type Error = CodecError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Invalid("format is not self-describing"))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            _ => Err(CodecError::Invalid("bool tag")),
        }
    }

    de_num!(deserialize_i8, visit_i8, 1, get_i8);
    de_num!(deserialize_i16, visit_i16, 2, get_i16_le);
    de_num!(deserialize_i32, visit_i32, 4, get_i32_le);
    de_num!(deserialize_i64, visit_i64, 8, get_i64_le);
    de_num!(deserialize_u8, visit_u8, 1, get_u8);
    de_num!(deserialize_u16, visit_u16, 2, get_u16_le);
    de_num!(deserialize_u32, visit_u32, 4, get_u32_le);
    de_num!(deserialize_u64, visit_u64, 8, get_u64_le);
    de_num!(deserialize_f32, visit_f32, 4, get_f32_le);
    de_num!(deserialize_f64, visit_f64, 8, get_f64_le);

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let mut b = self.take(4)?;
        let c = char::from_u32(b.get_u32_le()).ok_or(CodecError::Invalid("char"))?;
        visitor.visit_char(c)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        let s = std::str::from_utf8(bytes).map_err(|_| CodecError::Invalid("utf-8"))?;
        visitor.visit_borrowed_str(s)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.get_len()?;
        visitor.visit_borrowed_bytes(self.take(len)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.get_len()?;
        visitor.visit_seq(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_seq(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.get_len()?;
        visitor.visit_map(Counted {
            de: self,
            left: len,
        })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_enum(EnumAccess { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Invalid("identifiers are not encoded"))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Invalid("cannot skip fields in this format"))
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

struct Counted<'a, 'de> {
    de: &'a mut Decoder<'de>,
    left: usize,
}

impl<'de> de::SeqAccess<'de> for Counted<'_, 'de> {
    type Error = CodecError;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, CodecError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

impl<'de> de::MapAccess<'de> for Counted<'_, 'de> {
    type Error = CodecError;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, CodecError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, CodecError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut Decoder<'de>,
}

impl<'a, 'de> de::EnumAccess<'de> for EnumAccess<'a, 'de> {
    type Error = CodecError;
    type Variant = VariantAccessImpl<'a, 'de>;

    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), CodecError> {
        let mut b = self.de.take(4)?;
        let idx = b.get_u32_le();
        let val = seed.deserialize(idx.into_deserializer())?;
        Ok((val, VariantAccessImpl { de: self.de }))
    }
}

struct VariantAccessImpl<'a, 'de> {
    de: &'a mut Decoder<'de>,
}

impl<'de> de::VariantAccess<'de> for VariantAccessImpl<'_, 'de> {
    type Error = CodecError;

    fn unit_variant(self) -> Result<(), CodecError> {
        Ok(())
    }

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, CodecError> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    enum Kind {
        Empty,
        One(u32),
        Pair(u8, String),
        Fields { a: i64, b: Option<bool> },
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Everything {
        flag: bool,
        small: i8,
        big: u64,
        real: f64,
        ch: char,
        text: String,
        list: Vec<u32>,
        map: BTreeMap<String, i32>,
        opt_some: Option<u16>,
        opt_none: Option<u16>,
        kinds: Vec<Kind>,
        tup: (u8, u8, String),
    }

    fn sample() -> Everything {
        Everything {
            flag: true,
            small: -5,
            big: u64::MAX,
            real: 3.25,
            ch: 'λ',
            text: "hello — workflow".to_string(),
            list: vec![1, 2, 3],
            map: [("a".to_string(), -1), ("b".to_string(), 2)].into(),
            opt_some: Some(99),
            opt_none: None,
            kinds: vec![
                Kind::Empty,
                Kind::One(7),
                Kind::Pair(1, "x".into()),
                Kind::Fields {
                    a: -9,
                    b: Some(false),
                },
            ],
            tup: (1, 2, "three".into()),
        }
    }

    #[test]
    fn roundtrip_everything() {
        let v = sample();
        let bytes = to_bytes(&v).unwrap();
        let back: Everything = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let bytes = to_bytes(&42u32).unwrap();
        let mut extended = bytes.to_vec();
        extended.push(0);
        assert!(matches!(
            from_bytes::<u32>(&extended),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&sample()).unwrap();
        let cut = &bytes[..bytes.len() / 2];
        assert!(matches!(
            from_bytes::<Everything>(cut),
            Err(CodecError::Eof) | Err(CodecError::Invalid(_)) | Err(CodecError::Message(_))
        ));
    }

    #[test]
    fn bad_bool_tag_rejected() {
        assert!(matches!(
            from_bytes::<bool>(&[7]),
            Err(CodecError::Invalid("bool tag"))
        ));
    }

    #[test]
    fn model_types_roundtrip() {
        use zoom_model::{SpecBuilder, UserView};
        let mut b = SpecBuilder::new("codec-spec");
        b.analysis("A");
        b.formatting("B");
        b.from_input("A").edge("A", "B").to_output("B");
        let spec = b.build().unwrap();
        let bytes = to_bytes(&spec).unwrap();
        let back: zoom_model::WorkflowSpec = from_bytes(&bytes).unwrap();
        assert_eq!(back.name(), "codec-spec");
        assert_eq!(back.module_count(), 2);

        let view = UserView::admin(&spec);
        let vb = to_bytes(&view).unwrap();
        let vback: UserView = from_bytes(&vb).unwrap();
        assert_eq!(vback.size(), 2);
        assert_eq!(vback.name(), "UAdmin");
    }

    /// A view still encodes its member index as the `module → composite`
    /// map stored views carry, and decoding rebuilds the dense index; a
    /// run's decode rebuilds its derived slot table.
    #[test]
    fn views_and_runs_keep_their_encoding() {
        use zoom_graph::NodeId;
        use zoom_model::{CompositeId, CompositeModule, RunBuilder, SpecBuilder, UserView};
        /// The field layout views had when the index was a hash map.
        #[derive(Serialize)]
        struct MapView {
            name: String,
            spec_name: String,
            composites: Vec<CompositeModule>,
            of_module: BTreeMap<NodeId, CompositeId>,
        }
        let mut b = SpecBuilder::new("enc");
        for m in ["A", "B", "C"] {
            b.analysis(m);
        }
        b.from_input("A")
            .edge("A", "B")
            .edge("B", "C")
            .to_output("C");
        let spec = b.build().unwrap();
        let (a, bm, c) = (
            spec.module("A").unwrap(),
            spec.module("B").unwrap(),
            spec.module("C").unwrap(),
        );
        let composites = vec![
            CompositeModule::new("AC", vec![a, c]),
            CompositeModule::new("B", vec![bm]),
        ];
        let view = UserView::new("v", &spec, composites.clone()).unwrap();
        let map_bytes = |of_module: BTreeMap<NodeId, CompositeId>| {
            to_bytes(&MapView {
                name: "v".into(),
                spec_name: "enc".into(),
                composites: composites.clone(),
                of_module,
            })
            .unwrap()
        };
        let map: BTreeMap<_, _> = [
            (a, CompositeId(0)),
            (bm, CompositeId(1)),
            (c, CompositeId(0)),
        ]
        .into();
        assert_eq!(to_bytes(&view).unwrap(), map_bytes(map.clone()));
        let back: UserView = from_bytes(&map_bytes(map.clone())).unwrap();
        back.validate(&spec).unwrap();
        assert_eq!(back.composite_of(c), CompositeId(0));
        // A doctored index naming a node past the modules fails to decode.
        let mut doctored = map;
        doctored.insert(NodeId::from_index(1 << 30), CompositeId(1));
        assert!(from_bytes::<UserView>(&map_bytes(doctored)).is_err());

        let mut rb = RunBuilder::new(&spec);
        let (s1, s2, s3) = (rb.step(a), rb.step(bm), rb.step(c));
        rb.input_edge(s1, [1, 2])
            .data_edge(s1, s2, [3])
            .data_edge(s2, s3, [4, 5, 6])
            .output_edge(s3, [7]);
        let run = rb.build().unwrap();
        let back: zoom_model::WorkflowRun = from_bytes(&to_bytes(&run).unwrap()).unwrap();
        assert_eq!(back.slot_count(), 7);
        for e in run.graph().edge_ids() {
            assert_eq!(back.edge_slots(e), run.edge_slots(e));
        }
    }

    /// Specs' and runs' hash-map fields encode in key order: the same
    /// value built twice encodes to the same bytes, and decoding then
    /// re-encoding reproduces them.
    #[test]
    fn equal_runs_encode_to_equal_bytes() {
        use zoom_model::{RunBuilder, SpecBuilder, WorkflowRun, WorkflowSpec};
        let build_spec = || {
            let mut b = SpecBuilder::new("loop");
            let tail = ["B", "C", "D", "E", "F", "G", "H"];
            b.analysis("A");
            for m in tail {
                b.analysis(m);
            }
            b.from_input("A")
                .from_input("B")
                .edge("A", "B")
                .edge("B", "A")
                .to_output("B");
            for w in tail.windows(2) {
                b.edge(w[0], w[1]);
            }
            b.to_output("H");
            b.build().unwrap()
        };
        let spec = build_spec();
        let spec_bytes = to_bytes(&spec).unwrap();
        assert_eq!(to_bytes(&build_spec()).unwrap(), spec_bytes);
        let spec_back: WorkflowSpec = from_bytes(&spec_bytes).unwrap();
        assert_eq!(to_bytes(&spec_back).unwrap(), spec_bytes);

        let build = || {
            let mut rb = RunBuilder::new(&spec);
            let mut prev = None;
            for i in 0..40u64 {
                let module = if i % 2 == 0 { "A" } else { "B" };
                let s = rb.step(spec.module(module).unwrap());
                rb.input_edge(s, [1000 + i])
                    .param(s, "round", i.to_string());
                if let Some(p) = prev {
                    rb.data_edge(p, s, [3 * i, 3 * i + 1, 3 * i + 2]);
                }
                prev = Some(s);
            }
            rb.output_edge(prev.unwrap(), [9999]);
            rb.build().unwrap()
        };
        let bytes = to_bytes(&build()).unwrap();
        assert_eq!(to_bytes(&build()).unwrap(), bytes);
        let back: WorkflowRun = from_bytes(&bytes).unwrap();
        assert_eq!(to_bytes(&back).unwrap(), bytes);
    }
}

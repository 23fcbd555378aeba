//! Dependency-free binary serialization for LevIR values.
//!
//! The checkpoint/restore subsystem in `levi-sim` needs to persist whole
//! programs, execution contexts, and the functional memory image without
//! pulling in a serialization crate. This module provides the byte-level
//! primitives ([`Writer`], [`Reader`]), the value codec ([`Codec`], and
//! [`Restore`] for state overlaid in place) with the two macros that
//! declare an encoding once per type ([`codec_struct!`](crate::codec_struct),
//! [`codec_enum!`](crate::codec_enum)), and codecs for the types whose
//! constructors are crate-private ([`Program`], [`Function`]) or whose
//! representation is private ([`PagedMem`]).
//!
//! All integers are little-endian. Containers are length-prefixed
//! (`u32` for counts, `u64` for byte lengths). Enums are encoded as a
//! one-byte tag, as their `codec_enum!` list assigns it. The format carries no per-value
//! type information — framing and versioning are the responsibility of
//! the embedding container (`levi-sim`'s snapshot header).

use crate::exec::{ExecCtx, Pc};
use crate::inst::{AluOp, BrCond, Inst, Label, Location, MemOrder, MemWidth, Reg, RmwOp, NUM_REGS};
use crate::mem::{PagedMem, PAGE_SIZE};
use crate::program::{ActionId, FuncId, Function, Program, ProgramError};

/// A decode failure. Encoding is infallible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Truncated,
    /// A tag or length field held a value the decoder does not understand.
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Byte-buffer writer. A thin wrapper over `Vec<u8>` so call sites read
/// symmetrically with [`Reader`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian i32 (two's complement).
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian i64 (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 as its raw IEEE-754 bits (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a u64-length-prefixed byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.raw(bytes);
    }

    /// Appends a UTF-8 string (length-prefixed).
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Byte-buffer reader over a borrowed slice.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; rejects bytes other than 0/1.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool")),
        }
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian i32.
    pub fn i32(&mut self) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an f64 from its raw bits.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a u64-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(CodecError::Truncated);
        }
        self.take(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::Invalid("utf-8"))
    }

    /// Reads a u32 element count, bounded by the bytes actually remaining
    /// (each element needs at least `min_elem_bytes`), so corrupted
    /// lengths fail cleanly instead of attempting huge allocations.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Value codec
// ---------------------------------------------------------------------------

/// A value with one binary encoding: [`Codec::put`] appends it and
/// [`Codec::get`] reads it back.
///
/// Implemented here once for the integers, `bool`, `f64`, `Option`, `Vec`,
/// `VecDeque`, fixed arrays, pairs and triples, and the id newtypes.
/// Structs declare their encoding with [`codec_struct!`](crate::codec_struct)
/// and tagged enums with [`codec_enum!`](crate::codec_enum).
pub trait Codec: Sized {
    /// A lower bound on the encoded size: the guard [`Reader::count`]
    /// applies to a sequence of this type.
    const MIN_BYTES: usize = 1;

    /// Appends the encoding of `self`.
    fn put(&self, w: &mut Writer);

    /// Reads a value written by [`Codec::put`].
    ///
    /// # Errors
    /// [`CodecError::Truncated`] for short input, [`CodecError::Invalid`]
    /// for a bad tag or a value that fails its type's checks.
    fn get(r: &mut Reader) -> Result<Self, CodecError>;
}

/// State restored into a value built beforehand (from a configuration, in
/// `levi-sim`), rather than decoded from nothing. Every [`Codec`] type is
/// `Restore`: restoring it overwrites it with a decoded value.
pub trait Restore {
    /// Appends the encoding of `self`.
    fn save(&self, w: &mut Writer);

    /// Overlays state written by [`Restore::save`] onto `self`.
    ///
    /// # Errors
    /// As [`Codec::get`]; also when the encoding does not fit the shape
    /// `self` was built with.
    fn restore(&mut self, r: &mut Reader) -> Result<(), CodecError>;
}

impl<T: Codec> Restore for T {
    fn save(&self, w: &mut Writer) {
        self.put(w);
    }

    fn restore(&mut self, r: &mut Reader) -> Result<(), CodecError> {
        *self = T::get(r)?;
        Ok(())
    }
}

macro_rules! primitive_codec {
    ($($t:ident),*) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            fn put(&self, w: &mut Writer) {
                w.$t(*self);
            }

            fn get(r: &mut Reader) -> Result<Self, CodecError> {
                r.$t()
            }
        }
    )*};
}

primitive_codec!(u8, u16, u32, u64, i32, i64, f64, bool);

/// A `usize` travels as a `u64`.
impl Codec for usize {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }

    fn get(r: &mut Reader) -> Result<Self, CodecError> {
        usize::try_from(r.u64()?).map_err(|_| CodecError::Invalid("usize"))
    }
}

/// A presence flag, then the value if present.
impl<T: Codec> Codec for Option<T> {
    fn put(&self, w: &mut Writer) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }

    fn get(r: &mut Reader) -> Result<Self, CodecError> {
        Ok(if r.bool()? { Some(T::get(r)?) } else { None })
    }
}

/// Elements reserved up front by [`get_seq`]: a count is bounded by the
/// bytes left, not by its elements' size in memory.
const MAX_RESERVE: usize = 1 << 12;

/// Appends a `u32` count and then each element with `put`.
pub fn put_seq<'a, T: 'a>(
    w: &mut Writer,
    items: impl ExactSizeIterator<Item = &'a T>,
    mut put: impl FnMut(&T, &mut Writer),
) {
    w.u32(items.len() as u32);
    for x in items {
        put(x, w);
    }
}

/// Reads a sequence written by [`put_seq`]: a `u32` count, checked by
/// [`Reader::count`] against `min_bytes` per element, then the elements.
///
/// # Errors
/// Whatever `get` returns, and [`CodecError::Truncated`] for a count the
/// input cannot hold.
pub fn get_seq<T>(
    r: &mut Reader,
    min_bytes: usize,
    mut get: impl FnMut(&mut Reader) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let n = r.count(min_bytes)?;
    let mut v = Vec::with_capacity(n.min(MAX_RESERVE));
    for _ in 0..n {
        v.push(get(r)?);
    }
    Ok(v)
}

/// A `u32` count, then the elements.
impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 4;

    fn put(&self, w: &mut Writer) {
        put_seq(w, self.iter(), T::put);
    }

    fn get(r: &mut Reader) -> Result<Self, CodecError> {
        get_seq(r, T::MIN_BYTES, T::get)
    }
}

/// Encoded as a `Vec`, front first.
impl<T: Codec> Codec for std::collections::VecDeque<T> {
    const MIN_BYTES: usize = 4;

    fn put(&self, w: &mut Writer) {
        put_seq(w, self.iter(), T::put);
    }

    fn get(r: &mut Reader) -> Result<Self, CodecError> {
        Ok(get_seq(r, T::MIN_BYTES, T::get)?.into())
    }
}

/// The `N` elements, with no count.
impl<T: Codec, const N: usize> Codec for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;

    fn put(&self, w: &mut Writer) {
        for x in self {
            x.put(w);
        }
    }

    fn get(r: &mut Reader) -> Result<Self, CodecError> {
        let v = (0..N).map(|_| T::get(r)).collect::<Result<Vec<T>, _>>()?;
        Ok(v.try_into()
            .unwrap_or_else(|_| unreachable!("exactly N elements")))
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }

    fn get(r: &mut Reader) -> Result<Self, CodecError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES + C::MIN_BYTES;

    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }

    fn get(r: &mut Reader) -> Result<Self, CodecError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// Field adapter for a `Vec<u8>` stored as a byte string (a `u64` length,
/// then the bytes; see [`Writer::bytes`]).
pub struct Bytes;

impl Bytes {
    /// Appends `v` as a byte string.
    pub fn put(&self, v: &[u8], w: &mut Writer) {
        w.bytes(v);
    }

    /// Reads a byte string.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] for short input.
    pub fn get(&self, r: &mut Reader) -> Result<Vec<u8>, CodecError> {
        Ok(r.bytes()?.to_vec())
    }
}

/// Field adapter for a sequence restored in place whose length the
/// configuration fixes: a `u32` count, then the elements. A count other
/// than the length is rejected as `Invalid(self.0)`.
pub struct Fixed(pub &'static str);

impl Fixed {
    /// Appends the count and the elements.
    pub fn save<T: Restore>(&self, v: &[T], w: &mut Writer) {
        put_seq(w, v.iter(), T::save);
    }

    /// Restores each element in place.
    ///
    /// # Errors
    /// `Invalid(self.0)` for a count other than `v.len()`, and whatever an
    /// element's restore returns.
    pub fn restore<T: Restore>(&self, v: &mut [T], r: &mut Reader) -> Result<(), CodecError> {
        if r.u32()? as usize != v.len() {
            return Err(CodecError::Invalid(self.0));
        }
        v.iter_mut().try_for_each(|x| x.restore(r))
    }
}

/// Returns `v`, typed as the field `_field` selects. [`codec_struct!`]
/// reads each field into a local through this, so the local's type is
/// known before the struct literal and later adapters and checks can call
/// methods on it.
#[doc(hidden)]
pub fn as_field<S, T>(_field: fn(&S) -> &T, v: T) -> T {
    v
}

/// Implements [`Codec`] for a struct from one list of its fields, in
/// encoding order (which need not be declaration order).
///
/// The write side destructures the struct and the read side builds it
/// with a struct literal, so a field the list leaves out is a compile
/// error. Fields are read in list order into locals named after them, so
/// an `ensure` condition (checked after every field is read) and a field
/// adapter can use the fields before it.
///
/// ```text
/// codec_struct!(Pc { func, idx });                 // Codec for a struct
/// codec_struct!(FuncId(u32), ActionId(u32));       // Codec for newtypes
/// codec_struct!(Gshare { history, mask, table: Bytes }
///     ensure table.len() as u64 == mask.wrapping_add(1) => "gshare table size";);
/// codec_struct!(pub(crate) Actor(progs: &ProgTable) { kind, prog: progs, .. });
/// codec_struct!(in_place Noc { link_free: Fixed("noc link count") }
///     kept { cols, cfg, fault_start, fault_entries });
/// ```
///
/// - `field: adapter` encodes the field through a value with inherent
///   `put(&field, w)` and `get(r)` methods (`save`/`restore` in place).
/// - `Name(cx: &Ctx) { .. }` generates inherent `put_in(&self, w, cx)` and
///   `get_in(r, cx)` instead of a `Codec` impl, for fields whose encoding
///   needs context (a table the adapter `cx` looks values up in).
/// - `in_place Name { .. } kept { .. }` implements [`Restore`] for a value
///   built from the configuration: `kept` names the fields left as built,
///   and `field(other, ..): adapter` hands the adapter several fields at
///   once as a tuple.
#[macro_export]
macro_rules! codec_struct {
    (
        in_place $ty:ident {
            $( $f:ident $( ( $($g:ident),+ ) )? $( : $ad:expr )? ),* $(,)?
        }
        $( kept { $( $k:ident ),* $(,)? } )?
        $( ensure $cond:expr => $what:literal; )*
    ) => {
        impl $crate::codec::Restore for $ty {
            fn save(&self, w: &mut $crate::codec::Writer) {
                #[allow(unused_variables)]
                let $ty { $( $f, $( $($g,)+ )? )* $( $($k,)* )? } = self;
                $( $crate::codec_struct!(@save w, $f $( ( $($g),+ ) )? $(, $ad)?); )*
            }

            fn restore(
                &mut self,
                r: &mut $crate::codec::Reader,
            ) -> Result<(), $crate::codec::CodecError> {
                #[allow(unused_variables)]
                let $ty { $( $f, $( $($g,)+ )? )* $( $($k,)* )? } = self;
                $( $crate::codec_struct!(@restore r, $f $( ( $($g),+ ) )? $(, $ad)?); )*
                $(
                    if !($cond) {
                        return Err($crate::codec::CodecError::Invalid($what));
                    }
                )*
                Ok(())
            }
        }
    };
    (
        $vis:vis $ty:ident ( $cx:ident : $cxty:ty ) {
            $( $f:ident $( : $ad:expr )? ),* $(,)?
        }
        $( ensure $cond:expr => $what:literal; )*
    ) => {
        impl $ty {
            /// Appends the encoding of `self`, looking context up in the
            /// last argument.
            $vis fn put_in(&self, w: &mut $crate::codec::Writer, $cx: $cxty) {
                $crate::codec_struct!(@put self, w, $ty { $( $f $(: $ad)? ),* });
            }

            /// Reads a value written by `put_in` with the same context.
            $vis fn get_in(
                r: &mut $crate::codec::Reader,
                $cx: $cxty,
            ) -> Result<Self, $crate::codec::CodecError> {
                $crate::codec_struct!(@get r, $ty { $( $f $(: $ad)? ),* } $( $cond => $what; )*)
            }
        }
    };
    (
        $ty:ident { $( $f:ident $( : $ad:expr )? ),* $(,)? }
        $( ensure $cond:expr => $what:literal; )*
    ) => {
        impl $crate::codec::Codec for $ty {
            fn put(&self, w: &mut $crate::codec::Writer) {
                $crate::codec_struct!(@put self, w, $ty { $( $f $(: $ad)? ),* });
            }

            fn get(r: &mut $crate::codec::Reader) -> Result<Self, $crate::codec::CodecError> {
                $crate::codec_struct!(@get r, $ty { $( $f $(: $ad)? ),* } $( $cond => $what; )*)
            }
        }
    };
    ( $( $ty:ident ( $inner:ty ) ),+ $(,)? ) => {$(
        impl $crate::codec::Codec for $ty {
            const MIN_BYTES: usize = <$inner as $crate::codec::Codec>::MIN_BYTES;

            fn put(&self, w: &mut $crate::codec::Writer) {
                $crate::codec::Codec::put(&self.0, w);
            }

            fn get(r: &mut $crate::codec::Reader) -> Result<Self, $crate::codec::CodecError> {
                Ok($ty($crate::codec::Codec::get(r)?))
            }
        }
    )+};
    (@put $this:ident, $w:ident, $ty:ident { $( $f:ident $( : $ad:expr )? ),* }) => {
        let $ty { $($f),* } = $this;
        $( $crate::codec_struct!(@put_field $w, $f $(, $ad)?); )*
    };
    (@get $r:ident, $ty:ident { $( $f:ident $( : $ad:expr )? ),* } $( $cond:expr => $what:literal; )*) => {{
        $(
            let $f = $crate::codec::as_field(
                |s: &$ty| &s.$f,
                $crate::codec_struct!(@get_field $r $(, $ad)?),
            );
        )*
        $(
            if !($cond) {
                return Err($crate::codec::CodecError::Invalid($what));
            }
        )*
        Ok($ty { $($f),* })
    }};
    (@put_field $w:ident, $f:ident) => { $crate::codec::Codec::put($f, $w) };
    (@put_field $w:ident, $f:ident, $ad:expr) => { $ad.put($f, $w) };
    (@get_field $r:ident) => { $crate::codec::Codec::get($r)? };
    (@get_field $r:ident, $ad:expr) => { $ad.get($r)? };
    (@save $w:ident, $f:ident) => { $crate::codec::Restore::save($f, $w) };
    (@save $w:ident, $f:ident, $ad:expr) => { $ad.save($f, $w) };
    (@save $w:ident, $f:ident ( $($g:ident),+ ), $ad:expr) => { $ad.save(($f, $($g),+), $w) };
    (@restore $r:ident, $f:ident) => { $crate::codec::Restore::restore(&mut *$f, $r)? };
    (@restore $r:ident, $f:ident, $ad:expr) => { $ad.restore(&mut *$f, $r)? };
    (@restore $r:ident, $f:ident ( $($g:ident),+ ), $ad:expr) => {
        $ad.restore((&mut *$f, $(&mut *$g),+), $r)?
    };
}

/// Implements [`Codec`] for an enum as a one-byte tag and then the
/// variant's fields, from one list of `tag => Variant` entries. A variant
/// the list leaves out is a compile error (the write side's `match` is
/// exhaustive); an unknown tag reads as `Invalid($what)`.
///
/// ```text
/// codec_enum!(MemOrder "memory order" { 0 => Fenced, 1 => Relaxed });
/// codec_enum!(ActorState "actor state" { 0 => Runnable, 1 => Parked(cond), 2 => Done });
/// codec_enum!(ActorKind "actor kind" {
///     0 => CoreThread { core },
///     1 => EngineTask { engine, reserved_ctx, stream },
/// });
/// ```
///
/// A struct variant's field may name an adapter, as in
/// [`codec_struct!`](crate::codec_struct): `Invoke { .., args: InvokeArgs, .. }`.
#[macro_export]
macro_rules! codec_enum {
    (
        $ty:ident $what:literal {
            $(
                $tag:literal => $var:ident
                $( ( $($t:ident),+ ) )?
                $( { $( $f:ident $( : $ad:expr )? ),+ } )?
            ),+ $(,)?
        }
    ) => {
        impl $crate::codec::Codec for $ty {
            fn put(&self, w: &mut $crate::codec::Writer) {
                match self {
                    $(
                        $ty::$var $( ( $($t),+ ) )? $( { $($f),+ } )? => {
                            w.u8($tag);
                            $( $( $crate::codec::Codec::put($t, w); )+ )?
                            $( $( $crate::codec_struct!(@put_field w, $f $(, $ad)?); )+ )?
                        }
                    )+
                }
            }

            fn get(r: &mut $crate::codec::Reader) -> Result<Self, $crate::codec::CodecError> {
                Ok(match r.u8()? {
                    $(
                        $tag => {
                            $( $( let $t = $crate::codec::Codec::get(r)?; )+ )?
                            $( $( let $f = $crate::codec_struct!(@get_field r $(, $ad)?); )+ )?
                            $ty::$var $( ( $($t),+ ) )? $( { $($f),+ } )?
                        }
                    )+
                    _ => return Err($crate::codec::CodecError::Invalid($what)),
                })
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Instruction codec
// ---------------------------------------------------------------------------

/// A register index; reading rejects one outside the register file.
impl Codec for Reg {
    fn put(&self, w: &mut Writer) {
        w.u8(self.0);
    }

    fn get(r: &mut Reader) -> Result<Self, CodecError> {
        let v = r.u8()?;
        if (v as usize) < NUM_REGS {
            Ok(Reg(v))
        } else {
            Err(CodecError::Invalid("register index"))
        }
    }
}

crate::codec_struct!(Label(u32));
crate::codec_enum!(AluOp "alu op" {
    0 => Add, 1 => Sub, 2 => Mul, 3 => DivU, 4 => RemU, 5 => And, 6 => Or, 7 => Xor, 8 => Shl,
    9 => Shr, 10 => Sar, 11 => SltS, 12 => SltU, 13 => Seq, 14 => Sne, 15 => MinU, 16 => MaxU,
});
crate::codec_enum!(BrCond "branch condition" {
    0 => Eq, 1 => Ne, 2 => LtS, 3 => LtU, 4 => GeS, 5 => GeU,
});
crate::codec_enum!(MemWidth "memory width" { 0 => B1, 1 => B2, 2 => B4, 3 => B8 });
crate::codec_enum!(RmwOp "rmw op" {
    0 => Add, 1 => And, 2 => Or, 3 => Xor, 4 => MinU, 5 => MaxU, 6 => Xchg,
});
crate::codec_enum!(MemOrder "memory order" { 0 => Fenced, 1 => Relaxed });
crate::codec_enum!(Location "location" { 0 => Local, 1 => Remote, 2 => Dynamic });
crate::codec_enum!(Inst "instruction tag" {
    0 => Imm { rd, val },
    1 => Mov { rd, rs },
    2 => Alu { op, rd, ra, rb },
    3 => AluI { op, rd, ra, imm },
    4 => Ld { rd, ra, off, width, sext },
    5 => St { rs, ra, off, width },
    6 => Br { cond, ra, rb, target },
    7 => Jmp { target },
    8 => Call { func },
    9 => Ret,
    10 => Halt,
    11 => Nop,
    12 => AtomicRmw { op, rd, addr, rv, width, ordering },
    13 => Fence,
    14 => Invoke { actor, action, args: InvokeArgs, future, loc, exclusive },
    15 => FutureWait { rd, rf },
    16 => FutureSend { rf, rv },
    17 => Push { stream, rs },
    18 => Pop { stream },
    19 => Flush { addr, len },
    20 => Trace { rs },
});

/// An invoke's argument registers: a one-byte count, then the registers
/// (validation caps the count; see [`ProgramError::TooManyInvokeArgs`]).
struct InvokeArgs;

impl InvokeArgs {
    fn put(&self, args: &[Reg], w: &mut Writer) {
        w.u8(args.len() as u8);
        args.iter().for_each(|a| a.put(w));
    }

    fn get(&self, r: &mut Reader) -> Result<Vec<Reg>, CodecError> {
        let n = r.u8()?;
        (0..n).map(|_| Reg::get(r)).collect()
    }
}

// ---------------------------------------------------------------------------
// Program codec
// ---------------------------------------------------------------------------

/// Encodes a whole program (function names and instruction streams).
pub fn write_program(w: &mut Writer, p: &Program) {
    w.u32(p.len() as u32);
    for (_, f) in p.iter() {
        w.str(f.name());
        w.u32(f.insts().len() as u32);
        for inst in f.insts() {
            inst.put(w);
        }
    }
}

/// Decodes a program previously written by [`write_program`].
///
/// # Errors
/// Returns [`CodecError::Truncated`] for short input and
/// [`CodecError::Invalid`] for a bad tag or a program that fails
/// validation (the checks [`crate::ProgramBuilder::finish`] makes).
pub fn read_program(r: &mut Reader) -> Result<Program, CodecError> {
    let nfuncs = r.count(1)?;
    let mut funcs = Vec::with_capacity(nfuncs);
    for _ in 0..nfuncs {
        let name = r.str()?.to_owned();
        let ninsts = r.count(1)?;
        let mut insts = Vec::with_capacity(ninsts);
        for _ in 0..ninsts {
            insts.push(Inst::get(r)?);
        }
        funcs.push(Function::new(name, insts));
    }
    Program::new(funcs).map_err(|e| {
        CodecError::Invalid(match e {
            ProgramError::UnboundLabel { .. } => "unbound label",
            ProgramError::LabelOutOfRange { .. } => "branch target",
            ProgramError::UnknownCallee { .. } => "callee",
            ProgramError::FallsOffEnd { .. } => "function end",
            ProgramError::BadRegister { .. } => "register index",
            ProgramError::TooManyInvokeArgs { .. } => "invoke argument count",
        })
    })
}

// ---------------------------------------------------------------------------
// Execution-context codec
// ---------------------------------------------------------------------------

crate::codec_struct!(FuncId(u32), ActionId(u32));
crate::codec_struct!(Pc { func, idx });
crate::codec_struct!(ExecCtx {
    regs,
    pc,
    callstack,
    halted,
    retired,
});

// ---------------------------------------------------------------------------
// Memory codec
// ---------------------------------------------------------------------------

/// Encodes the full sparse memory image, pages in ascending index order
/// (the order is deterministic regardless of `HashMap` iteration order).
pub fn write_mem(w: &mut Writer, mem: &PagedMem) {
    let pages = mem.pages_ref();
    let mut idx: Vec<u64> = pages.keys().copied().collect();
    idx.sort_unstable();
    w.u32(idx.len() as u32);
    for i in idx {
        w.u64(i);
        w.raw(&pages[&i][..]);
    }
}

/// Decodes a memory image written by [`write_mem`].
pub fn read_mem(r: &mut Reader) -> Result<PagedMem, CodecError> {
    let npages = r.count(8 + PAGE_SIZE)?;
    let mut pages: crate::fx::FxHashMap<u64, Box<[u8; PAGE_SIZE]>> =
        crate::fx::map_with_capacity(npages);
    for _ in 0..npages {
        let idx = r.u64()?;
        let data = r.raw(PAGE_SIZE)?;
        let mut page = Box::new([0u8; PAGE_SIZE]);
        page.copy_from_slice(data);
        if pages.insert(idx, page).is_some() {
            return Err(CodecError::Invalid("duplicate memory page"));
        }
    }
    Ok(PagedMem::from_pages(pages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::mem::Memory;

    fn sample_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let (a, b) = (Reg(0), Reg(1));
        let done = f.label();
        f.imm(a, 7).imm(b, 35);
        f.bge_u(a, b, done);
        f.add(a, a, b);
        f.bind(done);
        f.ret();
        f.finish();
        pb.finish().unwrap()
    }

    #[test]
    fn program_round_trip() {
        let p = sample_program();
        let mut w = Writer::new();
        write_program(&mut w, &p);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let q = read_program(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(p.len(), q.len());
        for ((_, pf), (_, qf)) in p.iter().zip(q.iter()) {
            assert_eq!(pf.name(), qf.name());
            assert_eq!(pf.insts(), qf.insts());
        }
    }

    #[test]
    fn truncated_program_rejected() {
        let p = sample_program();
        let mut w = Writer::new();
        write_program(&mut w, &p);
        let bytes = w.into_bytes();
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(read_program(&mut r).is_err(), "cut at {cut} not rejected");
        }
    }

    #[test]
    fn mem_round_trip() {
        let mut m = PagedMem::new();
        m.write_u64(0x10, 0xdead_beef_cafe_f00d);
        m.write_u64(0x12_3450, 42);
        m.write_u8(0xffff_f000, 7);
        let mut w = Writer::new();
        write_mem(&mut w, &m);
        let bytes = w.into_bytes();
        let m2 = read_mem(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(m2.read_u64(0x10), 0xdead_beef_cafe_f00d);
        assert_eq!(m2.read_u64(0x12_3450), 42);
        assert_eq!(m2.read_u8(0xffff_f000), 7);
        assert_eq!(m2.resident_pages(), m.resident_pages());
    }

    /// Encodes `funcs` as [`write_program`] would, with no validation.
    fn encode_unchecked(funcs: &[(&str, Vec<Inst>)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(funcs.len() as u32);
        for (name, insts) in funcs {
            w.str(name);
            w.u32(insts.len() as u32);
            for inst in insts {
                inst.put(&mut w);
            }
        }
        w.into_bytes()
    }

    #[test]
    fn invalid_programs_are_rejected_on_decode() {
        let invoke5 = Inst::Invoke {
            actor: Reg(0),
            action: ActionId(0),
            args: (1..6).map(Reg).collect(),
            future: None,
            loc: Location::Remote,
            exclusive: false,
        };
        let cases: [(Vec<Inst>, &str); 4] = [
            (vec![Inst::Call { func: FuncId(7) }, Inst::Halt], "callee"),
            (vec![invoke5, Inst::Halt], "invoke argument count"),
            (
                vec![Inst::Jmp { target: Label(9) }, Inst::Halt],
                "branch target",
            ),
            (vec![Inst::Nop], "function end"),
        ];
        for (insts, what) in cases {
            let bytes = encode_unchecked(&[("main", insts)]);
            let got = read_program(&mut Reader::new(&bytes));
            assert_eq!(got.map(|_| ()), Err(CodecError::Invalid(what)));
        }
    }

    #[test]
    fn bad_tags_rejected() {
        let mut r = Reader::new(&[0xff]);
        assert_eq!(
            Inst::get(&mut r),
            Err(CodecError::Invalid("instruction tag"))
        );
        let mut r = Reader::new(&[2, 99, 0, 0, 0]);
        assert_eq!(Inst::get(&mut r), Err(CodecError::Invalid("alu op")));
    }
}

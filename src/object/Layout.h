//===- object/Layout.h - Typed heap object layouts ------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Layouts for typed heap objects. Every typed object starts with a
/// one-word header:
///
///   bits  7..0  ObjectKind
///   bits 63..8  length (elements for vectors/records, bytes for strings
///               and bytevectors, unused otherwise)
///
/// Kind Forward (0) marks an object forwarded during collection; the word
/// after the header then holds the tagged new location. Pairs have no
/// header; a forwarded pair stores Value::forwardMarker() in its car and
/// the new location in its cdr.
///
/// The collector needs two facts about every object: its size in words
/// and whether its payload words are tagged Values to trace. Both are
/// derivable from the header alone, which keeps the Cheney sweep a simple
/// linear walk over segment runs.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_OBJECT_LAYOUT_H
#define GENGC_OBJECT_LAYOUT_H

#include <cstring>

#include "object/Value.h"
#include "support/MathExtras.h"

namespace gengc {

/// Discriminates typed heap objects (low byte of the header word).
enum class ObjectKind : uint8_t {
  Forward = 0,    ///< Collector-internal: object has been copied.
  Vector = 1,     ///< Header + N tagged slots.
  String = 2,     ///< Header + N bytes (pointerless).
  Symbol = 3,     ///< Header + {Name, Hash, PropertyList}.
  Box = 4,        ///< Header + one tagged slot.
  Flonum = 5,     ///< Header + one double (pointerless).
  Bytevector = 6, ///< Header + N bytes (pointerless).
  Closure = 7,    ///< Header + {Clauses, Env, Name}. Clauses is a list of
                  ///< (formals . body) pairs, supporting case-lambda.
  Primitive = 8,  ///< Header + {Index, MinArgs, MaxArgs, Name}.
  PortHandle = 9, ///< Header + {PortId, Direction}. The buffered port
                  ///< state itself lives outside the collected heap.
  Record = 10,    ///< Header + N tagged slots; slot 0 is a tag by
                  ///< convention.
  Guardian = 11,  ///< Header + {Tconc}. First-class guardian object.
};

/// Number of fixed tagged fields for kinds with a constant layout.
constexpr size_t SymbolFieldCount = 3;
constexpr size_t ClosureFieldCount = 3;
constexpr size_t PrimitiveFieldCount = 4;
constexpr size_t PortHandleFieldCount = 2;
constexpr size_t GuardianFieldCount = 1;

/// Field indices, named to keep call sites readable.
enum SymbolField { SymName = 0, SymHash = 1, SymPlist = 2 };
enum ClosureField { CloClauses = 0, CloEnv = 1, CloName = 2 };
enum PrimitiveField {
  PrimIndex = 0,
  PrimMinArgs = 1,
  PrimMaxArgs = 2,
  PrimName = 3
};
enum PortHandleField { PortId = 0, PortDirection = 1 };
enum GuardianField { GuardTconc = 0 };

/// Builds a header word from a kind and a length.
constexpr uintptr_t makeHeader(ObjectKind K, uintptr_t Length) {
  return static_cast<uintptr_t>(K) | (Length << 8);
}

constexpr ObjectKind headerKind(uintptr_t Header) {
  return static_cast<ObjectKind>(Header & 0xFF);
}

constexpr uintptr_t headerLength(uintptr_t Header) { return Header >> 8; }

/// Returns the kind of a typed object value.
inline ObjectKind objectKind(Value V) {
  return headerKind(*V.objectHeader());
}

/// Returns the object's logical size in words (header included), derived
/// from the header alone.
inline size_t objectSizeInWords(uintptr_t Header) {
  const uintptr_t Len = headerLength(Header);
  switch (headerKind(Header)) {
  case ObjectKind::Forward:
    GENGC_UNREACHABLE("size of forwarded object requested");
  case ObjectKind::Vector:
  case ObjectKind::Record:
    return 1 + Len;
  case ObjectKind::String:
  case ObjectKind::Bytevector:
    return 1 + divideCeil(Len, sizeof(uintptr_t));
  case ObjectKind::Symbol:
    return 1 + SymbolFieldCount;
  case ObjectKind::Box:
    return 2;
  case ObjectKind::Flonum:
    return 2;
  case ObjectKind::Closure:
    return 1 + ClosureFieldCount;
  case ObjectKind::Primitive:
    return 1 + PrimitiveFieldCount;
  case ObjectKind::PortHandle:
    return 1 + PortHandleFieldCount;
  case ObjectKind::Guardian:
    return 1 + GuardianFieldCount;
  }
  GENGC_UNREACHABLE("corrupt object header");
}

/// Size in words actually reserved by the allocator. Every object gets at
/// least two words so a forwarding pointer always fits.
inline size_t objectAllocWords(uintptr_t Header) {
  size_t S = objectSizeInWords(Header);
  return S < 2 ? 2 : S;
}

/// Returns true if the object's payload words are tagged Values that the
/// collector must trace.
constexpr bool kindHasPointers(ObjectKind K) {
  switch (K) {
  case ObjectKind::Vector:
  case ObjectKind::Symbol:
  case ObjectKind::Box:
  case ObjectKind::Closure:
  case ObjectKind::Primitive:
  case ObjectKind::PortHandle:
  case ObjectKind::Record:
  case ObjectKind::Guardian:
    return true;
  case ObjectKind::Forward:
  case ObjectKind::String:
  case ObjectKind::Flonum:
  case ObjectKind::Bytevector:
    return false;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Raw field access. These do not apply the write barrier; mutation that
// can create old-to-young pointers must go through Heap's setters.
//===----------------------------------------------------------------------===//

/// Pointer to the first payload word of a typed object.
inline uintptr_t *objectPayload(Value V) { return V.objectHeader() + 1; }

/// Reads tagged field \p I of typed object \p V.
inline Value objectField(Value V, size_t I) {
  GENGC_ASSERT(I < objectSizeInWords(*V.objectHeader()) - 1,
               "object field index out of range");
  return Value::fromBits(objectPayload(V)[I]);
}

/// Writes tagged field \p I of typed object \p V without a barrier.
inline void objectFieldSetRaw(Value V, size_t I, Value X) {
  GENGC_ASSERT(I < objectSizeInWords(*V.objectHeader()) - 1,
               "object field index out of range");
  objectPayload(V)[I] = X.bits();
}

/// Checked kind test for typed objects.
inline bool isObjectOfKind(Value V, ObjectKind K) {
  return V.isObject() && objectKind(V) == K;
}

inline bool isVector(Value V) { return isObjectOfKind(V, ObjectKind::Vector); }
inline bool isString(Value V) { return isObjectOfKind(V, ObjectKind::String); }
inline bool isSymbol(Value V) { return isObjectOfKind(V, ObjectKind::Symbol); }
inline bool isBox(Value V) { return isObjectOfKind(V, ObjectKind::Box); }
inline bool isFlonum(Value V) { return isObjectOfKind(V, ObjectKind::Flonum); }
inline bool isBytevector(Value V) {
  return isObjectOfKind(V, ObjectKind::Bytevector);
}
inline bool isClosure(Value V) {
  return isObjectOfKind(V, ObjectKind::Closure);
}
inline bool isPrimitive(Value V) {
  return isObjectOfKind(V, ObjectKind::Primitive);
}
inline bool isPortHandle(Value V) {
  return isObjectOfKind(V, ObjectKind::PortHandle);
}
inline bool isRecord(Value V) { return isObjectOfKind(V, ObjectKind::Record); }
inline bool isGuardianObject(Value V) {
  return isObjectOfKind(V, ObjectKind::Guardian);
}

/// Length (elements or bytes) encoded in the object's header.
inline size_t objectLength(Value V) {
  return headerLength(*V.objectHeader());
}

/// Character data of a string object.
inline char *stringData(Value V) {
  GENGC_ASSERT(isString(V), "stringData on non-string");
  return reinterpret_cast<char *>(objectPayload(V));
}

/// Byte data of a bytevector object.
inline uint8_t *bytevectorData(Value V) {
  GENGC_ASSERT(isBytevector(V), "bytevectorData on non-bytevector");
  return reinterpret_cast<uint8_t *>(objectPayload(V));
}

/// Reads a flonum's payload.
inline double flonumValue(Value V) {
  GENGC_ASSERT(isFlonum(V), "flonumValue on non-flonum");
  double D;
  std::memcpy(&D, objectPayload(V), sizeof(double));
  return D;
}

/// Writes a flonum's payload (flonums are immutable at the language
/// level; this is for initialization).
inline void flonumSetValue(Value V, double D) {
  GENGC_ASSERT(isFlonum(V), "flonumSetValue on non-flonum");
  std::memcpy(objectPayload(V), &D, sizeof(double));
}

//===----------------------------------------------------------------------===//
// Pair access (unbarriered reads; barriered writes live in Heap).
//===----------------------------------------------------------------------===//

inline Value pairCar(Value P) { return Value::fromBits(P.pairCell()->Car); }
inline Value pairCdr(Value P) { return Value::fromBits(P.pairCell()->Cdr); }

inline void pairSetCarRaw(Value P, Value V) { P.pairCell()->Car = V.bits(); }
inline void pairSetCdrRaw(Value P, Value V) { P.pairCell()->Cdr = V.bits(); }

} // namespace gengc

#endif // GENGC_OBJECT_LAYOUT_H

//===- testing/ShadowModel.cpp - Non-moving reachability oracle ----------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "testing/ShadowModel.h"

#include <algorithm>

#include "support/Assert.h"

using namespace gengc;
using namespace gengc::gcfuzz;

//===----------------------------------------------------------------------===//
// Allocation mirror.
//===----------------------------------------------------------------------===//

ObjId ShadowModel::newObject(SKind Kind) {
  SObj O;
  O.Kind = Kind;
  // Mirrors Heap::allocateRaw: while a scope is open every birth lands
  // in the innermost scope's private nursery.
  O.Scope = static_cast<uint8_t>(ScopeDepth);
  Objects.push_back(std::move(O));
  return static_cast<ObjId>(Objects.size() - 1);
}

ObjId ShadowModel::cons(SVal Car, SVal Cdr) {
  ObjId Id = newObject(SKind::Pair);
  Objects[Id].Fields = {Car, Cdr};
  return Id;
}

ObjId ShadowModel::weakCons(SVal Car, SVal Cdr) {
  ObjId Id = newObject(SKind::WeakPair);
  Objects[Id].Fields = {Car, Cdr};
  return Id;
}

ObjId ShadowModel::makeVector(uint32_t Length, SVal Fill) {
  ObjId Id = newObject(SKind::Vector);
  Objects[Id].Length = Length;
  Objects[Id].Fields.assign(Length, Fill);
  return Id;
}

ObjId ShadowModel::makeString(const std::string &Data) {
  ObjId Id = newObject(SKind::String);
  Objects[Id].Length = static_cast<uint32_t>(Data.size());
  Objects[Id].Data = Data;
  return Id;
}

ObjId ShadowModel::makeBytevector(uint32_t Length) {
  ObjId Id = newObject(SKind::Bytevector);
  Objects[Id].Length = Length;
  return Id;
}

ObjId ShadowModel::makeFlonum(uint64_t FloBits) {
  ObjId Id = newObject(SKind::Flonum);
  Objects[Id].FloBits = FloBits;
  return Id;
}

ObjId ShadowModel::makeBox(SVal V) {
  ObjId Id = newObject(SKind::Box);
  Objects[Id].Fields = {V};
  return Id;
}

ObjId ShadowModel::makeRecord(SVal Tag, uint32_t FieldCount, SVal Fill) {
  GENGC_ASSERT(FieldCount >= 1, "records have at least a tag slot");
  ObjId Id = newObject(SKind::Record);
  Objects[Id].Length = FieldCount;
  Objects[Id].Fields.assign(FieldCount, Fill);
  Objects[Id].Fields[0] = Tag;
  return Id;
}

SVal ShadowModel::intern(const std::string &Name) {
  auto It = Symbols.find(Name);
  if (It != Symbols.end())
    return SVal::object(It->second);
  // Mirrors Heap::intern: fresh string first, then the symbol whose
  // SymName field references it; SymHash is fixnum 0, SymPlist is '().
  ObjId Str = makeString(Name);
  ObjId Sym = newObject(SKind::Symbol);
  Objects[Sym].Fields = {SVal::object(Str),
                         SVal::immediate(Value::fixnum(0)),
                         SVal::immediate(Value::nil())};
  Symbols.emplace(Name, Sym);
  return SVal::object(Sym);
}

ObjId ShadowModel::makeGuardianTconc() {
  ObjId Z = cons(SVal::immediate(Value::falseV()),
                 SVal::immediate(Value::nil()));
  Objects[Z].TconcPart = true;
  ObjId Header = cons(SVal::object(Z), SVal::object(Z));
  Objects[Header].TconcPart = true;
  Objects[Header].TconcHeader = true;
  return Header;
}

void ShadowModel::setField(ObjId Obj, uint32_t Index, SVal V) {
  GENGC_ASSERT(Index < Objects[Obj].Fields.size(),
               "shadow field index out of range");
  Objects[Obj].Fields[Index] = V;
}

//===----------------------------------------------------------------------===//
// Guardians (mutator side).
//===----------------------------------------------------------------------===//

unsigned ShadowModel::scopeOf(const SVal &V) const {
  return V.IsId ? Objects[V.Id].Scope : 0;
}

void ShadowModel::guardianProtect(ObjId Tconc, SVal Obj, SVal Agent) {
  const SEntry E{Obj, SVal::object(Tconc), Agent};
  unsigned Deepest = 0;
  for (const SVal *V : {&E.Obj, &E.Tconc, &E.Agent})
    Deepest = std::max(Deepest, scopeOf(*V));
  if (Deepest != 0)
    ScopeProtected[Deepest - 1].push_back(E);
  else
    Protected[0].push_back(E);
}

SVal ShadowModel::guardianRetrieve(ObjId Tconc) {
  SObj &Header = Objects[Tconc];
  if (Header.Fields[0] == Header.Fields[1])
    return SVal::immediate(Value::falseV());
  // Figure 4: Y = car(car(T)); car(T) = cdr(car(T)); clear the cell.
  ObjId X = Header.Fields[0].Id;
  SVal Y = Objects[X].Fields[0];
  Header.Fields[0] = Objects[X].Fields[1];
  Objects[X].Fields[0] = SVal::immediate(Value::falseV());
  Objects[X].Fields[1] = SVal::immediate(Value::falseV());
  return Y;
}

bool ShadowModel::guardianHasPending(ObjId Tconc) const {
  const SObj &Header = Objects[Tconc];
  return Header.Fields[0] != Header.Fields[1];
}

//===----------------------------------------------------------------------===//
// Collection.
//===----------------------------------------------------------------------===//

size_t ShadowModel::allocWords(const SObj &O) {
  switch (O.Kind) {
  case SKind::Pair:
  case SKind::WeakPair:
    return 2;
  case SKind::Vector:
  case SKind::Record:
    return std::max<size_t>(2, 1 + O.Length);
  case SKind::String:
  case SKind::Bytevector:
    return std::max<size_t>(
        2, 1 + (O.Length + sizeof(uintptr_t) - 1) / sizeof(uintptr_t));
  case SKind::Symbol:
    return 4;
  case SKind::Box:
  case SKind::Flonum:
    return 2;
  }
  GENGC_UNREACHABLE("bad shadow kind in allocWords");
}

namespace {

/// Mirrors Collector::targetFor.
void modelTargetFor(unsigned Gen, unsigned Age, unsigned T,
                    unsigned TenureCopies, unsigned &NewGen,
                    unsigned &NewAge) {
  if (Age + 1 >= TenureCopies) {
    NewGen = T;
    NewAge = 0;
  } else {
    NewGen = Gen;
    NewAge = Age + 1;
  }
}

} // namespace

ShadowModel::CollectOutcome
ShadowModel::collect(unsigned RequestedGeneration) {
  CollectOutcome Out;
  const unsigned Oldest = Generations - 1;
  const unsigned G = std::min(RequestedGeneration, Oldest);
  const unsigned T = std::min(G + 1, Oldest);
  Out.Collected = G;
  Out.Target = T;
  const size_t PreCount = Objects.size();
  Out.PreCount = PreCount;
  Out.Copied.assign(PreCount, 0);
  ModelGcStats &St = Out.Stats;

  for (size_t Id = 0; Id != PreCount; ++Id) {
    const SObj &O = Objects[Id];
    if (O.Alive && O.Scope == 0 && O.Gen <= G)
      St.BytesInFromSpace += allocWords(O) * sizeof(uintptr_t);
  }

  // "Copied" is the model's F set: live objects in collected
  // generations. Ids born during the collection (guardian tconc cells
  // appended below) count as trivially live; old-generation objects and
  // open-scope residents are never from-space — scope nurseries are
  // untouched by collections and reclaimed only at closeScope().
  std::vector<ObjId> Work;
  auto isFwd = [&](const SVal &V) {
    if (!V.IsId)
      return true;
    if (V.Id >= PreCount)
      return true;
    return Objects[V.Id].Scope != 0 || Objects[V.Id].Gen > G ||
           Out.Copied[V.Id] != 0;
  };
  auto forwardObj = [&](ObjId Id) {
    if (Id >= PreCount)
      return;
    SObj &O = Objects[Id];
    GENGC_ASSERT(O.Alive, "model traversal reached a reclaimed object");
    if (O.Scope != 0 || O.Gen > G || Out.Copied[Id])
      return;
    Out.Copied[Id] = 1;
    ++St.ObjectsCopied;
    St.BytesCopied += allocWords(O) * sizeof(uintptr_t);
    Work.push_back(Id);
  };
  auto forwardVal = [&](const SVal &V) {
    if (V.IsId)
      forwardObj(V.Id);
  };
  // Traverses the strong edges of one object (a weak pair's car is not
  // an edge).
  auto scanObj = [&](const SObj &O) {
    if (O.Kind == SKind::WeakPair) {
      forwardVal(O.Fields[1]);
      return;
    }
    for (const SVal &F : O.Fields)
      forwardVal(F);
  };
  // Cheney closure over everything discovered so far.
  auto sweep = [&]() {
    while (!Work.empty()) {
      ObjId Id = Work.back();
      Work.pop_back();
      scanObj(Objects[Id]);
    }
  };

  // Roots: the runner's root stack and per-op scratch operands, the
  // symbol table when it is strong, and — the generational contract —
  // every live object of an uncollected generation, whether or not it
  // is itself reachable. That last clause models the remembered sets'
  // conservatism exactly: old floating garbage retains its young
  // children. Open-scope residents are likewise uncollected roots
  // (Collector::scanOpenScopes rescans scope nurseries wholesale).
  for (const SVal &V : RootStack)
    forwardVal(V);
  for (const SVal &V : Scratch)
    forwardVal(V);
  if (!WeakSymbolTable)
    for (const auto &KV : Symbols)
      forwardObj(KV.second);
  for (size_t Id = 0; Id != PreCount; ++Id) {
    const SObj &O = Objects[Id];
    if (O.Alive && (O.Gen > G || O.Scope != 0))
      scanObj(O);
  }
  sweep();

  // Guardians: the Section 4 algorithm, in the collector's exact
  // order. First block — classify entries of protected[0..G];
  // distinct Section 5 agents are forwarded inline during
  // classification (without closure until the block completes).
  std::vector<SEntry> PendHold, PendFinal;
  bool ForwardedAnAgent = false;
  auto Classify = [&](const SEntry &E) {
    ++St.ProtectedEntriesVisited;
    if (isFwd(E.Obj)) {
      if (E.Agent != E.Obj) {
        forwardVal(E.Agent);
        ForwardedAnAgent = true;
      }
      PendHold.push_back(E);
    } else {
      PendFinal.push_back(E);
    }
  };
  for (unsigned I = 0; I <= G; ++I) {
    for (const SEntry &E : Protected[I])
      Classify(E);
    Protected[I].clear();
  }
  // Scope lists participate in every collection (their objects are
  // uncollected, so entries classify as held — but tconcs, objects,
  // and agents parked there can reference collected generations).
  for (auto &List : ScopeProtected) {
    for (const SEntry &E : List)
      Classify(E);
    List.clear();
  }
  if (ForwardedAnAgent)
    sweep();

  // Second block — salvage fixpoint. Each round delivers every entry
  // whose tconc is accessible, appending the agent to the tconc via a
  // fresh pair born directly in the target generation, then closes
  // reachability (a delivered object can make more tconcs accessible).
  while (true) {
    ++St.GuardianLoopIterations;
    std::vector<SEntry> FinalList;
    size_t Keep = 0;
    for (const SEntry &E : PendFinal) {
      if (isFwd(E.Tconc))
        FinalList.push_back(E);
      else
        PendFinal[Keep++] = E;
    }
    PendFinal.resize(Keep);
    if (FinalList.empty())
      break;
    for (const SEntry &E : FinalList) {
      forwardVal(E.Agent);
      // Collector::appendToTconc: fresh (#f . #f) cell in (target
      // generation, age 0); fill the old last cell; publish.
      ObjId NewCell = cons(SVal::immediate(Value::falseV()),
                           SVal::immediate(Value::falseV()));
      Objects[NewCell].Gen = static_cast<uint8_t>(T);
      // allocateInGeneration targets the ladder even while scopes are
      // open (newObject stamped the innermost depth; undo it).
      Objects[NewCell].Scope = 0;
      Objects[NewCell].TconcPart = true;
      SObj &Header = Objects[E.Tconc.Id];
      ObjId OldLast = Header.Fields[1].Id;
      Objects[OldLast].Fields[0] = E.Agent;
      Objects[OldLast].Fields[1] = SVal::object(NewCell);
      Objects[E.Tconc.Id].Fields[1] = SVal::object(NewCell);
      ++St.GuardianObjectsSaved;
    }
    sweep();
  }
  St.GuardianEntriesDropped += PendFinal.size();

  // Third block — re-park surviving registrations. A participant in an
  // open scope pins the entry to that (deepest) scope's list, so it is
  // revisited at the scope's close; otherwise the entry parks on the
  // protected list of the youngest post-collection generation among
  // the heap participants. A dead guardian drops the registration.
  auto postGen = [&](ObjId Id) -> unsigned {
    const SObj &O = Objects[Id];
    if (Id >= PreCount || O.Scope != 0 || O.Gen > G)
      return O.Gen;
    GENGC_ASSERT(Out.Copied[Id], "post-generation of a reclaimed object");
    unsigned NG, NA;
    modelTargetFor(O.Gen, O.Age, T, TenureCopies, NG, NA);
    return NG;
  };
  for (const SEntry &E : PendHold) {
    if (isFwd(E.Tconc)) {
      unsigned Deepest = 0;
      for (const SVal *V : {&E.Obj, &E.Tconc, &E.Agent})
        Deepest = std::max(Deepest, scopeOf(*V));
      if (Deepest != 0) {
        ScopeProtected[Deepest - 1].push_back(E);
      } else {
        unsigned Index = Oldest;
        for (const SVal *V : {&E.Obj, &E.Tconc, &E.Agent})
          if (V->IsId)
            Index = std::min(Index, postGen(V->Id));
        Protected[Index].push_back(E);
      }
      ++St.ProtectedEntriesKept;
    } else {
      ++St.GuardianEntriesDropped;
    }
  }

  // Weak-pair pass: every surviving weak pair whose car points at a
  // collected-generation object that was not copied gets its car broken
  // to #f. (The real collector visits copied weak pairs by sweeping
  // to-space and older ones via the weak remembered sets; if those sets
  // ever miss a pair, the walk or verifyHeap diverges — that is a bug
  // this model exists to catch, not to imitate.)
  auto diedThisCycle = [&](ObjId Id) {
    return Id < PreCount && Objects[Id].Scope == 0 &&
           Objects[Id].Gen <= G && !Out.Copied[Id];
  };
  for (size_t Id = 0; Id != PreCount; ++Id) {
    SObj &O = Objects[Id];
    if (!O.Alive || O.Kind != SKind::WeakPair)
      continue;
    if (diedThisCycle(static_cast<ObjId>(Id)))
      continue; // The pair itself is dying.
    SVal &Car = O.Fields[0];
    if (!Car.IsId)
      continue;
    if (diedThisCycle(Car.Id)) {
      Car = SVal::immediate(Value::falseV());
      ++St.WeakPointersBroken;
    }
  }

  // Weak symbol table: entries whose symbol died are dropped
  // (Friedman-Wise).
  if (WeakSymbolTable) {
    for (auto It = Symbols.begin(); It != Symbols.end();) {
      if (diedThisCycle(It->second)) {
        It = Symbols.erase(It);
        ++St.SymbolsDropped;
      } else {
        ++It;
      }
    }
  }

  // Reclaim / promote. Scope residents are untouched.
  for (size_t Id = 0; Id != PreCount; ++Id) {
    SObj &O = Objects[Id];
    if (!O.Alive || O.Scope != 0 || O.Gen > G)
      continue;
    if (Out.Copied[Id]) {
      unsigned NG, NA;
      modelTargetFor(O.Gen, O.Age, T, TenureCopies, NG, NA);
      if (NG > O.Gen)
        ++St.ObjectsPromoted;
      O.Gen = static_cast<uint8_t>(NG);
      O.Age = static_cast<uint8_t>(NA);
    } else {
      O.Alive = false;
      O.Fields.clear();
      O.Data.clear();
    }
  }

  return Out;
}

//===----------------------------------------------------------------------===//
// Request scopes.
//===----------------------------------------------------------------------===//

void ShadowModel::openScope() {
  ++ScopeDepth;
  ScopeProtected.emplace_back();
}

ShadowModel::ScopeCloseOutcome ShadowModel::closeScope() {
  GENGC_ASSERT(ScopeDepth != 0, "model closeScope with no scope open");
  const unsigned D = ScopeDepth;
  ScopeCloseOutcome Out;
  Out.Depth = D;
  const size_t PreCount = Objects.size();
  Out.PreCount = PreCount;
  Out.Copied.assign(PreCount, 0);
  ModelScopeStats &St = Out.Stats;

  // Nothing in a scope nursery dies before its scope closes, so every
  // member is still (model-)alive here and BytesInScope is the scope's
  // whole bump extent.
  for (size_t Id = 0; Id != PreCount; ++Id) {
    const SObj &O = Objects[Id];
    if (O.Alive && O.Scope == D)
      St.BytesInScope += allocWords(O) * sizeof(uintptr_t);
  }

  // The from-set is exactly the closing scope's membership; everything
  // else — outer scopes included — counts as already forwarded.
  std::vector<ObjId> Work;
  auto isFwd = [&](const SVal &V) {
    if (!V.IsId)
      return true;
    if (V.Id >= PreCount)
      return true;
    return Objects[V.Id].Scope != D || Out.Copied[V.Id] != 0;
  };
  auto forwardObj = [&](ObjId Id) {
    if (Id >= PreCount)
      return;
    SObj &O = Objects[Id];
    GENGC_ASSERT(O.Alive, "scope-close traversal reached a reclaimed "
                          "object");
    if (O.Scope != D || Out.Copied[Id])
      return;
    Out.Copied[Id] = 1;
    ++St.ObjectsEvacuated;
    St.BytesEvacuated += allocWords(O) * sizeof(uintptr_t);
    Work.push_back(Id);
  };
  auto forwardVal = [&](const SVal &V) {
    if (V.IsId)
      forwardObj(V.Id);
  };
  auto scanObj = [&](const SObj &O) {
    if (O.Kind == SKind::WeakPair) {
      forwardVal(O.Fields[1]);
      return;
    }
    for (const SVal &F : O.Fields)
      forwardVal(F);
  };
  auto sweep = [&]() {
    while (!Work.empty()) {
      ObjId Id = Work.back();
      Work.pop_back();
      scanObj(Objects[Id]);
    }
  };

  // Evacuation roots: the mutator's roots, the strong symbol table,
  // and the strong fields of every live non-member. That last clause
  // is what the per-scope escape sets buy the real collector — any
  // outside object that received an into-scope pointer was recorded by
  // the barrier and is rescanned at close, whether or not the outside
  // object is itself still reachable (floating garbage retains its
  // escaped scope children until a collection reclaims the container).
  for (const SVal &V : RootStack)
    forwardVal(V);
  for (const SVal &V : Scratch)
    forwardVal(V);
  if (!WeakSymbolTable)
    for (const auto &KV : Symbols)
      forwardObj(KV.second);
  for (size_t Id = 0; Id != PreCount; ++Id) {
    const SObj &O = Objects[Id];
    if (O.Alive && O.Scope != D)
      scanObj(O);
  }
  sweep();

  // The Section 4 guardian fixpoint, over the closing scope's own
  // protected list only (other lists are untouched at scope exit).
  std::vector<SEntry> PendHold, PendFinal;
  bool ForwardedAnAgent = false;
  for (const SEntry &E : ScopeProtected[D - 1]) {
    ++St.ProtectedEntriesVisited;
    if (isFwd(E.Obj)) {
      if (E.Agent != E.Obj) {
        forwardVal(E.Agent);
        ForwardedAnAgent = true;
      }
      PendHold.push_back(E);
    } else {
      PendFinal.push_back(E);
    }
  }
  ScopeProtected[D - 1].clear();
  if (ForwardedAnAgent)
    sweep();

  while (true) {
    ++St.GuardianLoopIterations;
    std::vector<SEntry> FinalList;
    size_t Keep = 0;
    for (const SEntry &E : PendFinal) {
      if (isFwd(E.Tconc))
        FinalList.push_back(E);
      else
        PendFinal[Keep++] = E;
    }
    PendFinal.resize(Keep);
    if (FinalList.empty())
      break;
    for (const SEntry &E : FinalList) {
      forwardVal(E.Agent);
      // Collector::appendToTconc in scope-close mode: the fresh cell
      // is born in the enclosing extent (depth D-1, generation 0).
      ObjId NewCell = cons(SVal::immediate(Value::falseV()),
                           SVal::immediate(Value::falseV()));
      Objects[NewCell].Scope = static_cast<uint8_t>(D - 1);
      Objects[NewCell].TconcPart = true;
      SObj &Header = Objects[E.Tconc.Id];
      ObjId OldLast = Header.Fields[1].Id;
      Objects[OldLast].Fields[0] = E.Agent;
      Objects[OldLast].Fields[1] = SVal::object(NewCell);
      Objects[E.Tconc.Id].Fields[1] = SVal::object(NewCell);
      ++St.GuardianObjectsSaved;
    }
    sweep();
  }
  St.GuardianEntriesDropped += PendFinal.size();

  // Re-park survivors: evacuated participants now live at depth D-1,
  // so the deepest-scope rule lands the entry on an outer scope's list
  // or, with no scope participant left, on the youngest-generation
  // list (every evacuee is generation 0).
  auto postScope = [&](const SVal &V) -> unsigned {
    if (!V.IsId)
      return 0;
    if (V.Id >= PreCount)
      return D - 1;
    const SObj &O = Objects[V.Id];
    return O.Scope == D ? D - 1 : O.Scope;
  };
  const unsigned Oldest = Generations - 1;
  for (const SEntry &E : PendHold) {
    if (isFwd(E.Tconc)) {
      unsigned Deepest = 0;
      for (const SVal *V : {&E.Obj, &E.Tconc, &E.Agent})
        Deepest = std::max(Deepest, postScope(*V));
      if (Deepest != 0) {
        ScopeProtected[Deepest - 1].push_back(E);
      } else {
        unsigned Index = Oldest;
        for (const SVal *V : {&E.Obj, &E.Tconc, &E.Agent})
          if (V->IsId)
            Index = std::min(
                Index, static_cast<unsigned>(Objects[V->Id].Gen));
        Protected[Index].push_back(E);
      }
      ++St.ProtectedEntriesKept;
    } else {
      ++St.GuardianEntriesDropped;
    }
  }

  // Weak pairs: any survivor (outside the scope, in an outer scope, or
  // just evacuated) whose car points at a scope-dying member is broken.
  auto diedWithScope = [&](ObjId Id) {
    return Id < PreCount && Objects[Id].Scope == D && !Out.Copied[Id];
  };
  for (size_t Id = 0; Id != Objects.size(); ++Id) {
    SObj &O = Objects[Id];
    if (!O.Alive || O.Kind != SKind::WeakPair)
      continue;
    if (diedWithScope(static_cast<ObjId>(Id)))
      continue;
    SVal &Car = O.Fields[0];
    if (Car.IsId && diedWithScope(Car.Id)) {
      Car = SVal::immediate(Value::falseV());
      ++St.WeakPointersBroken;
    }
  }

  // Weak symbol table: in-scope symbols that did not escape die with
  // the scope.
  if (WeakSymbolTable) {
    for (auto It = Symbols.begin(); It != Symbols.end();) {
      if (diedWithScope(It->second)) {
        It = Symbols.erase(It);
        ++St.SymbolsDropped;
      } else {
        ++It;
      }
    }
  }

  // Graduate / reclaim, then retire the scope.
  for (size_t Id = 0; Id != PreCount; ++Id) {
    SObj &O = Objects[Id];
    if (!O.Alive || O.Scope != D)
      continue;
    if (Out.Copied[Id]) {
      O.Scope = static_cast<uint8_t>(D - 1);
    } else {
      O.Alive = false;
      O.Fields.clear();
      O.Data.clear();
    }
  }
  GENGC_ASSERT(ScopeProtected.back().empty(),
               "closed scope still holds protected entries");
  ScopeProtected.pop_back();
  --ScopeDepth;
  return Out;
}

//===----------------------------------------------------------------------===//
// Census prediction.
//===----------------------------------------------------------------------===//

namespace {

SpaceKind spaceOfKind(SKind K) {
  switch (K) {
  case SKind::Pair:
    return SpaceKind::Pair;
  case SKind::WeakPair:
    return SpaceKind::WeakPair;
  case SKind::Vector:
  case SKind::Symbol:
  case SKind::Box:
  case SKind::Record:
    return SpaceKind::Typed;
  case SKind::String:
  case SKind::Flonum:
  case SKind::Bytevector:
    return SpaceKind::Data;
  }
  GENGC_UNREACHABLE("bad shadow kind in spaceOf");
}

CensusKind censusKindOf(SKind K) {
  switch (K) {
  case SKind::Pair:
    return CensusKind::Pair;
  case SKind::WeakPair:
    return CensusKind::WeakPair;
  case SKind::Vector:
    return CensusKind::Vector;
  case SKind::String:
    return CensusKind::String;
  case SKind::Symbol:
    return CensusKind::Symbol;
  case SKind::Box:
    return CensusKind::Box;
  case SKind::Flonum:
    return CensusKind::Flonum;
  case SKind::Bytevector:
    return CensusKind::Bytevector;
  case SKind::Record:
    return CensusKind::Record;
  }
  GENGC_UNREACHABLE("bad shadow kind in censusKindOf");
}

} // namespace

ModelCensus ShadowModel::censusExpect() const {
  ModelCensus C;
  for (const SObj &O : Objects) {
    if (!O.Alive)
      continue;
    const unsigned Sp = static_cast<unsigned>(spaceOfKind(O.Kind));
    const unsigned K = static_cast<unsigned>(censusKindOf(O.Kind));
    const uint64_t Bytes = allocWords(O) * sizeof(uintptr_t);
    C.ObjectCount[O.Gen][Sp] += 1;
    C.UsedBytes[O.Gen][Sp] += Bytes;
    C.KindCounts[K] += 1;
    C.KindBytes[K] += Bytes;
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Segment donation (DESIGN.md §14).
//===----------------------------------------------------------------------===//

ShadowModel::GraphSnapshot ShadowModel::snapshotGraph(SVal Root) const {
  GraphSnapshot G;
  // Maps already-visited object ids to node indices — the shadow of
  // donateGraph's donor-bits -> copy-bits map, preserving sharing and
  // cycles.
  std::unordered_map<ObjId, uint32_t> Index;
  std::vector<ObjId> Pending;

  auto symbolName = [&](ObjId Sym) -> const std::string & {
    const SObj &O = Objects[Sym];
    GENGC_ASSERT(O.Kind == SKind::Symbol && !O.Fields.empty(),
                 "snapshotGraph: malformed shadow symbol");
    return Objects[O.Fields[0].Id].Data;
  };

  auto snapVal = [&](const SVal &V) -> SnapVal {
    SnapVal S;
    if (!V.IsId) {
      S.Imm = V.Imm;
      return S;
    }
    const SObj &O = Objects[V.Id];
    if (O.Kind == SKind::Symbol) {
      // Symbols travel by name (a fixup), never as copies.
      S.Kind = SnapVal::K::Symbol;
      S.Name = symbolName(V.Id);
      return S;
    }
    auto Found = Index.find(V.Id);
    if (Found == Index.end()) {
      Found = Index.emplace(V.Id, static_cast<uint32_t>(G.Nodes.size()))
                  .first;
      G.Nodes.emplace_back();
      G.Words += allocWords(O);
      Pending.push_back(V.Id);
    }
    S.Kind = SnapVal::K::Node;
    S.Node = Found->second;
    return S;
  };

  G.Root = snapVal(Root);
  while (!Pending.empty()) {
    const ObjId Id = Pending.back();
    Pending.pop_back();
    const SObj &O = Objects[Id];
    // Filled into a local first: snapVal may grow G.Nodes.
    SnapNode N;
    N.Kind = O.Kind;
    N.Length = O.Length;
    N.Data = O.Data;
    N.FloBits = O.FloBits;
    N.Fields.reserve(O.Fields.size());
    // Weak cars are traversed strongly, like donateGraph: the donated
    // copy must stay structurally complete until the receiver's own
    // collector gets a chance to break it.
    for (const SVal &F : O.Fields)
      N.Fields.push_back(snapVal(F));
    G.Nodes[Index[Id]] = std::move(N);
  }
  return G;
}

SVal ShadowModel::adoptGraph(const GraphSnapshot &G) {
  // Phase 1, mirroring Heap::adoptDonatedGraph: intern every fixup
  // name first (each may allocate a string + symbol in the nursery).
  // Phase 2 then instantiates the copied nodes — adoption retags whole
  // donated segments to generation 0, so every adopted object is born
  // young, age 0, scope 0.
  auto internFixup = [&](const SnapVal &S) {
    if (S.Kind == SnapVal::K::Symbol)
      intern(S.Name);
  };
  internFixup(G.Root);
  for (const SnapNode &N : G.Nodes)
    for (const SnapVal &F : N.Fields)
      internFixup(F);

  std::vector<ObjId> Ids(G.Nodes.size(), NoObj);
  for (size_t I = 0; I != G.Nodes.size(); ++I) {
    const SnapNode &N = G.Nodes[I];
    const ObjId Id = newObject(N.Kind);
    SObj &O = Objects[Id];
    O.Gen = 0;
    O.Age = 0;
    O.Scope = 0;
    O.Length = N.Length;
    O.Data = N.Data;
    O.FloBits = N.FloBits;
    Ids[I] = Id;
  }

  auto resolve = [&](const SnapVal &S) -> SVal {
    switch (S.Kind) {
    case SnapVal::K::Imm: {
      SVal V;
      V.Imm = S.Imm;
      return V;
    }
    case SnapVal::K::Node:
      return SVal::object(Ids[S.Node]);
    case SnapVal::K::Symbol:
      return intern(S.Name);
    }
    GENGC_UNREACHABLE("bad SnapVal kind");
  };

  for (size_t I = 0; I != G.Nodes.size(); ++I) {
    const SnapNode &N = G.Nodes[I];
    SObj &O = Objects[Ids[I]];
    O.Fields.reserve(N.Fields.size());
    for (const SnapVal &F : N.Fields) {
      const SVal V = resolve(F); // may not grow Objects: names interned
      O.Fields.push_back(V);
    }
  }
  return resolve(G.Root);
}

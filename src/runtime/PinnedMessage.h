//===- runtime/PinnedMessage.h - A value in flight between shards -*- C++ -*-//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-shard value transfer. Each shard owns a private Heap, so a
/// Value can never be handed directly to another shard: the pointer is
/// meaningless there and the sending collector may move or reclaim the
/// object at any time. Instead a value crossing shards is *pinned*: the
/// sender copies its graph once into sealed segments of the exchange
/// arena (Heap::donateGraph), the handle to those segments rides the
/// mailbox, and the receiver adopts them into its own generation 0
/// (Heap::adoptDonatedGraph) without copying again.
///
/// Sharing and cycles survive, weak pairs stay weak, symbols are
/// re-interned by name on the receiving heap, and shared immutables
/// pass through by identity. Kinds that are meaningless outside their
/// shard — closures, primitives, port handles, guardians — are either
/// rejected (the default: nothing is sent) or severed to #f under
/// TransferPolicy::Sever.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_RUNTIME_PINNEDMESSAGE_H
#define GENGC_RUNTIME_PINNEDMESSAGE_H

#include <cstdint>

#include "heap/SharedImmutableSpace.h"

namespace gengc {
namespace runtime {

/// One cross-shard message. Safe to carry across threads: the graph
/// handle holds no pointer into either shard's private heap, and
/// dropping an undelivered message frees its segments back to the
/// exchange arena.
struct PinnedMessage {
  DonatedGraph Graph;

  /// Causal-tracing identifiers, stamped by Shard::sendValue and
  /// carried verbatim to the receiver. TraceId names the whole causal
  /// chain (the first hop's span id); SpanId names this hop and is
  /// globally unique: (sender shard + 1) << 32 | per-shard sequence,
  /// so the source shard is recoverable from the id alone. Zero means
  /// untraced.
  uint64_t TraceId = 0;
  uint64_t SpanId = 0;
};

} // namespace runtime
} // namespace gengc

#endif // GENGC_RUNTIME_PINNEDMESSAGE_H

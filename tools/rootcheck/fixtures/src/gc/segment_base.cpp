// rootcheck self-test fixture: segment-base under src/. Never compiled.
// The fixture sits at a src/gc/ relative path, where the allow-comment
// no longer suppresses the rule: program code walks, scans and copies
// objects through heap/ObjectWalk.h.

#include "heap/Arena.h"

using namespace gengc;

uintptr_t *peekSegmentAnnotated(Arena &A) {
  // rootcheck:allow(segment-base) — ignored under src/.
  return A.segmentBase(5); // expect: segment-base
}

#include "accel/axis.h"

namespace pathfinder::accel {

const char* AxisName(Axis a) {
  switch (a) {
    case Axis::kChild:
      return "child";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kSelf:
      return "self";
    case Axis::kParent:
      return "parent";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kFollowing:
      return "following";
    case Axis::kPreceding:
      return "preceding";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
    case Axis::kAttribute:
      return "attribute";
  }
  return "?";
}

bool AxisIsForward(Axis a) {
  switch (a) {
    case Axis::kParent:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kPreceding:
    case Axis::kPrecedingSibling:
      return false;
    default:
      return true;
  }
}

std::string NodeTest::ToString(const StringPool& pool) const {
  switch (kind) {
    case Kind::kAnyKind:
      return "node()";
    case Kind::kElement:
      return "*";
    case Kind::kText:
      return "text()";
    case Kind::kComment:
      return "comment()";
    case Kind::kPi:
      return "processing-instruction()";
    case Kind::kName:
      return std::string(pool.Get(name));
  }
  return "?";
}

}  // namespace pathfinder::accel

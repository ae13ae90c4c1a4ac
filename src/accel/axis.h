#ifndef PATHFINDER_ACCEL_AXIS_H_
#define PATHFINDER_ACCEL_AXIS_H_

#include <cstdint>
#include <string>

#include "base/string_pool.h"
#include "xml/document.h"

namespace pathfinder::accel {

/// XPath axes supported by the step compiler (paper Table 2, full axis
/// feature set).
enum class Axis : uint8_t {
  kChild,
  kDescendant,
  kDescendantOrSelf,
  kSelf,
  kParent,
  kAncestor,
  kAncestorOrSelf,
  kFollowing,
  kPreceding,
  kFollowingSibling,
  kPrecedingSibling,
  kAttribute,
};

const char* AxisName(Axis a);

/// Whether results of this axis are emitted in ascending pre order when
/// contexts are processed in ascending pre order (reverse axes are not).
bool AxisIsForward(Axis a);

/// XPath node test.
struct NodeTest {
  enum class Kind : uint8_t {
    kAnyKind,   // node()
    kElement,   // element() or * on a non-attribute axis
    kText,      // text()
    kComment,   // comment()
    kPi,        // processing-instruction()
    kName,      // name test: element (or attribute on attribute axis)
                // with prop == name
  };
  Kind kind = Kind::kAnyKind;
  StrId name = 0;  // valid when kind == kName

  static NodeTest AnyKind() { return {Kind::kAnyKind, 0}; }
  static NodeTest Element() { return {Kind::kElement, 0}; }
  static NodeTest Text() { return {Kind::kText, 0}; }
  static NodeTest Comment() { return {Kind::kComment, 0}; }
  static NodeTest Pi() { return {Kind::kPi, 0}; }
  static NodeTest Name(StrId n) { return {Kind::kName, n}; }

  std::string ToString(const StringPool& pool) const;
};

/// Does node v of doc satisfy the test in the context of `axis`?
/// (On the attribute axis a name test matches attribute names; on all
/// other axes it matches element tags, and attributes never match.)
/// Inline: the staircase scans call it once per encoding row.
inline bool MatchesTest(const xml::Document& doc, xml::Pre v, Axis axis,
                        const NodeTest& test) {
  xml::NodeKind k = doc.kind(v);
  if (axis == Axis::kAttribute) {
    if (k != xml::NodeKind::kAttr) return false;
    switch (test.kind) {
      case NodeTest::Kind::kAnyKind:
      case NodeTest::Kind::kElement:  // attribute::* selects attributes
        return true;
      case NodeTest::Kind::kName:
        return doc.prop(v) == test.name;
      default:
        return false;
    }
  }
  if (k == xml::NodeKind::kAttr) return false;
  switch (test.kind) {
    case NodeTest::Kind::kAnyKind:
      return true;
    case NodeTest::Kind::kElement:
      return k == xml::NodeKind::kElem;
    case NodeTest::Kind::kText:
      return k == xml::NodeKind::kText;
    case NodeTest::Kind::kComment:
      return k == xml::NodeKind::kComment;
    case NodeTest::Kind::kPi:
      return k == xml::NodeKind::kPi;
    case NodeTest::Kind::kName:
      return k == xml::NodeKind::kElem && doc.prop(v) == test.name;
  }
  return false;
}

}  // namespace pathfinder::accel

#endif  // PATHFINDER_ACCEL_AXIS_H_

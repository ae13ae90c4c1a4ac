#ifndef PATHFINDER_XML_SERIALIZER_H_
#define PATHFINDER_XML_SERIALIZER_H_

#include <string>

#include "base/string_pool.h"
#include "xml/document.h"

namespace pathfinder::xml {

/// Serialize the subtree rooted at `v` back to XML text.
///
/// Used by the result post-processor (paper Sec. 2, "a simple
/// post-processor then serializes the relational result") and by the
/// storage-overhead experiment to measure original-XML byte size.
std::string SerializeSubtree(const Document& doc, Pre v,
                             const StringPool& pool);

/// SerializeSubtree appending to *out: text and attribute values are
/// escaped (& < >, and " in attribute values) straight into it.
void AppendSubtree(const Document& doc, Pre v, const StringPool& pool,
                   std::string* out);

/// Serialize a whole document (children of the doc node).
std::string SerializeDocument(const Document& doc, const StringPool& pool);

}  // namespace pathfinder::xml

#endif  // PATHFINDER_XML_SERIALIZER_H_

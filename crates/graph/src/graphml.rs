//! GraphML serialisation.
//!
//! The paper's testing system "stores graphs in the standardized GraphML
//! format to simplify graph visualization and editing" (§3). This module
//! writes and reads the subset of GraphML the workspace needs: node elements
//! carrying `kind` and `level` attributes, and directed edges from each left
//! neighbour to the check node that XORs it in.
//!
//! The parser is a small hand-rolled tokenizer for well-formed GraphML of
//! the shape this module emits (plus whitespace/attribute-order variations).
//! It is not a general XML parser, by design — no external dependencies.

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::model::{Graph, LevelKind};
use std::fmt::Write as _;

/// Serialises `graph` to a GraphML string.
///
/// ```
/// use tornado_graph::{GraphBuilder, graphml};
/// let mut b = GraphBuilder::new(2);
/// b.begin_level("c1");
/// b.add_check(&[0, 1]);
/// let g = b.build().unwrap();
/// let xml = graphml::to_graphml(&g);
/// let back = graphml::from_graphml(&xml).unwrap();
/// assert_eq!(g, back);
/// ```
pub fn to_graphml(graph: &Graph) -> String {
    let mut s = String::with_capacity(graph.num_nodes() * 96 + graph.num_edges() * 48);
    s.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    s.push_str("<graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">\n");
    s.push_str("  <key id=\"kind\" for=\"node\" attr.name=\"kind\" attr.type=\"string\"/>\n");
    s.push_str("  <key id=\"level\" for=\"node\" attr.name=\"level\" attr.type=\"string\"/>\n");
    s.push_str("  <graph id=\"tornado\" edgedefault=\"directed\">\n");
    for level in graph.levels() {
        let kind = match level.kind {
            LevelKind::Data => "data",
            LevelKind::Check => "check",
        };
        for id in level.nodes() {
            let _ = writeln!(
                s,
                "    <node id=\"n{id}\"><data key=\"kind\">{kind}</data><data key=\"level\">{}</data></node>",
                escape(&level.label)
            );
        }
    }
    let mut edge_id = 0usize;
    for check in graph.check_ids() {
        for &left in graph.check_neighbors(check) {
            let _ = writeln!(
                s,
                "    <edge id=\"e{edge_id}\" source=\"n{left}\" target=\"n{check}\"/>"
            );
            edge_id += 1;
        }
    }
    s.push_str("  </graph>\n</graphml>\n");
    s
}

fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn unescape(text: &str) -> String {
    text.replace("&quot;", "\"")
        .replace("&gt;", ">")
        .replace("&lt;", "<")
        .replace("&amp;", "&")
}

/// One parsed XML tag event.
#[derive(Debug, PartialEq)]
enum Event<'a> {
    /// `<name attr=".." ..>` — `self_closing` if it ends with `/>`.
    Open {
        name: &'a str,
        attrs: Vec<(&'a str, String)>,
        self_closing: bool,
    },
    /// `</name>`
    Close(&'a str),
    /// Text between tags (trimmed; empty text skipped).
    Text(String),
}

/// Minimal XML tokenizer for the GraphML subset.
struct Tokenizer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Tokenizer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src,
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, detail: impl Into<String>) -> GraphError {
        GraphError::Parse {
            line: self.line,
            detail: detail.into(),
        }
    }

    fn bump_lines(&mut self, s: &str) {
        self.line += s.bytes().filter(|&b| b == b'\n').count();
    }

    fn next_event(&mut self) -> Result<Option<Event<'a>>, GraphError> {
        loop {
            let rest = &self.src[self.pos..];
            if rest.is_empty() {
                return Ok(None);
            }
            if let Some(lt) = rest.find('<') {
                if lt > 0 {
                    let text = &rest[..lt];
                    self.bump_lines(text);
                    self.pos += lt;
                    let trimmed = text.trim();
                    if !trimmed.is_empty() {
                        return Ok(Some(Event::Text(unescape(trimmed))));
                    }
                    continue;
                }
                // rest starts with '<'
                let gt = rest.find('>').ok_or_else(|| self.err("unterminated tag"))?;
                let tag = &rest[1..gt];
                self.bump_lines(&rest[..=gt]);
                self.pos += gt + 1;
                if tag.starts_with('?') || tag.starts_with('!') {
                    continue; // declaration or comment
                }
                if let Some(name) = tag.strip_prefix('/') {
                    return Ok(Some(Event::Close(name.trim())));
                }
                let self_closing = tag.ends_with('/');
                let body = tag.strip_suffix('/').unwrap_or(tag);
                let mut parts = body.splitn(2, char::is_whitespace);
                let name = parts.next().unwrap_or("");
                let attrs = match parts.next() {
                    Some(attr_src) => parse_attrs(attr_src).map_err(|d| self.err(d))?,
                    None => Vec::new(),
                };
                return Ok(Some(Event::Open {
                    name,
                    attrs,
                    self_closing,
                }));
            } else {
                let trimmed = rest.trim();
                self.pos = self.src.len();
                if trimmed.is_empty() {
                    return Ok(None);
                }
                return Err(self.err("trailing text outside tags"));
            }
        }
    }
}

fn parse_attrs(src: &str) -> Result<Vec<(&str, String)>, String> {
    let mut attrs = Vec::new();
    let mut rest = src.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("attribute without '=': {rest}"))?;
        let name = rest[..eq].trim();
        let after = rest[eq + 1..].trim_start();
        let quote = after
            .chars()
            .next()
            .filter(|&c| c == '"' || c == '\'')
            .ok_or_else(|| format!("attribute value not quoted: {after}"))?;
        let end = after[1..]
            .find(quote)
            .ok_or_else(|| format!("unterminated attribute value: {after}"))?;
        attrs.push((name, unescape(&after[1..1 + end])));
        rest = after[end + 2..].trim_start();
    }
    Ok(attrs)
}

fn node_index(id: &str, line: usize) -> Result<u32, GraphError> {
    id.strip_prefix('n')
        .and_then(|s| s.parse::<u32>().ok())
        .ok_or_else(|| GraphError::Parse {
            line,
            detail: format!("node id '{id}' is not of the form n<index>"),
        })
}

/// Parses a graph from GraphML produced by [`to_graphml`] (attribute order
/// and whitespace may vary).
pub fn from_graphml(src: &str) -> Result<Graph, GraphError> {
    struct NodeRec {
        kind: Option<String>,
        level: Option<String>,
    }
    let mut nodes: Vec<(u32, NodeRec)> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();

    let mut tok = Tokenizer::new(src);
    // Current <node> being filled and the active <data key=..> inside it.
    let mut current_node: Option<usize> = None;
    let mut current_key: Option<String> = None;

    while let Some(ev) = tok.next_event()? {
        match ev {
            Event::Open {
                name: "node",
                attrs,
                self_closing,
            } => {
                let id = attrs
                    .iter()
                    .find(|(k, _)| *k == "id")
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| tok.err("<node> without id"))?;
                let idx = node_index(&id, tok.line)?;
                nodes.push((
                    idx,
                    NodeRec {
                        kind: None,
                        level: None,
                    },
                ));
                if !self_closing {
                    current_node = Some(nodes.len() - 1);
                }
            }
            Event::Close("node") => current_node = None,
            Event::Open {
                name: "data",
                attrs,
                self_closing,
            } if current_node.is_some() && !self_closing => {
                current_key = attrs
                    .iter()
                    .find(|(k, _)| *k == "key")
                    .map(|(_, v)| v.clone());
            }
            Event::Close("data") => current_key = None,
            Event::Text(text) => {
                if let (Some(ni), Some(key)) = (current_node, current_key.as_deref()) {
                    match key {
                        "kind" => nodes[ni].1.kind = Some(text),
                        "level" => nodes[ni].1.level = Some(text),
                        _ => {}
                    }
                }
            }
            Event::Open {
                name: "edge",
                attrs,
                ..
            } => {
                let get = |k: &str| {
                    attrs
                        .iter()
                        .find(|(a, _)| *a == k)
                        .map(|(_, v)| v.clone())
                        .ok_or_else(|| GraphError::Parse {
                            line: tok.line,
                            detail: format!("<edge> without {k}"),
                        })
                };
                let source = node_index(&get("source")?, tok.line)?;
                let target = node_index(&get("target")?, tok.line)?;
                edges.push((source, target));
            }
            _ => {}
        }
    }

    if nodes.is_empty() {
        return Err(GraphError::Parse {
            line: tok.line,
            detail: "no nodes found".into(),
        });
    }
    nodes.sort_by_key(|&(id, _)| id);
    for (expect, &(id, _)) in nodes.iter().enumerate() {
        if id != expect as u32 {
            return Err(GraphError::Parse {
                line: 0,
                detail: format!("node ids not contiguous: expected n{expect}, found n{id}"),
            });
        }
    }

    // Group contiguous runs of (kind, level) into levels.
    let num_data = nodes
        .iter()
        .take_while(|(_, rec)| rec.kind.as_deref() == Some("data"))
        .count();
    if num_data == 0 {
        return Err(GraphError::Parse {
            line: 0,
            detail: "no data nodes (kind=\"data\") at the start of the id space".into(),
        });
    }

    // Left-neighbour list per check node.
    let num_nodes = nodes.len();
    let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); num_nodes - num_data];
    for (source, target) in edges {
        if (target as usize) < num_data || target as usize >= num_nodes {
            return Err(GraphError::Parse {
                line: 0,
                detail: format!("edge targets non-check node n{target}"),
            });
        }
        neighbors[target as usize - num_data].push(source);
    }

    let mut builder = GraphBuilder::new(num_data);
    let mut current_label: Option<&str> = None;
    for (idx, (_, rec)) in nodes.iter().enumerate().skip(num_data) {
        if rec.kind.as_deref() != Some("check") {
            return Err(GraphError::Parse {
                line: 0,
                detail: format!("node n{idx} after the data level must have kind=\"check\""),
            });
        }
        let label = rec.level.as_deref().unwrap_or("check");
        if current_label != Some(label) {
            builder.begin_level(label);
            current_label = Some(label);
        }
        builder.add_check(&neighbors[idx - num_data]);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.begin_level("check-1");
        b.add_check(&[0, 1]);
        b.add_check(&[1, 2, 3]);
        b.begin_level("check-2");
        b.add_check(&[4, 5]);
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = sample();
        let xml = to_graphml(&g);
        let back = from_graphml(&xml).unwrap();
        assert_eq!(g, back);
        assert_eq!(g.fingerprint(), back.fingerprint());
    }

    #[test]
    fn output_contains_expected_elements() {
        let xml = to_graphml(&sample());
        assert!(xml.contains("<graphml"));
        assert!(xml.contains("<node id=\"n0\">"));
        assert!(xml.contains("<edge id=\"e0\" source=\"n0\" target=\"n4\"/>"));
        assert!(xml.contains("check-2"));
        assert!(xml.ends_with("</graphml>\n"));
    }

    #[test]
    fn parser_tolerates_reordered_attributes_and_whitespace() {
        let xml = r#"<?xml version="1.0"?>
<graphml>
  <graph edgedefault="directed" id="g">
    <node id="n0"> <data key="kind">data</data><data key="level">data</data> </node>
    <node id="n1"><data key="level">data</data><data key="kind">data</data></node>
    <node id="n2"><data key="kind">check</data><data key="level">c</data></node>
    <edge target="n2" source="n0" id="e0"/>
    <edge source="n1" target="n2" id="e1"/>
  </graph>
</graphml>"#;
        let g = from_graphml(xml).unwrap();
        assert_eq!(g.num_data(), 2);
        assert_eq!(g.check_neighbors(2), &[0, 1]);
    }

    #[test]
    fn parser_rejects_gap_in_ids() {
        let xml = r#"<graphml><graph>
<node id="n0"><data key="kind">data</data></node>
<node id="n2"><data key="kind">check</data></node>
<edge source="n0" target="n2"/>
</graph></graphml>"#;
        assert!(matches!(from_graphml(xml), Err(GraphError::Parse { .. })));
    }

    #[test]
    fn parser_rejects_edge_into_data_node() {
        let xml = r#"<graphml><graph>
<node id="n0"><data key="kind">data</data></node>
<node id="n1"><data key="kind">data</data></node>
<node id="n2"><data key="kind">check</data></node>
<edge source="n0" target="n1"/>
<edge source="n0" target="n2"/>
</graph></graphml>"#;
        assert!(matches!(from_graphml(xml), Err(GraphError::Parse { .. })));
    }

    #[test]
    fn parser_rejects_unterminated_tag() {
        assert!(matches!(
            from_graphml("<graphml><node id=\"n0\""),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn parser_reports_empty_input() {
        assert!(matches!(from_graphml(""), Err(GraphError::Parse { .. })));
        assert!(matches!(
            from_graphml("   \n  "),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn escaping_roundtrip_in_level_labels() {
        let mut b = GraphBuilder::new(1);
        b.begin_level("a<b>&\"c\"");
        b.add_check(&[0]);
        let g = b.build().unwrap();
        let back = from_graphml(&to_graphml(&g)).unwrap();
        assert_eq!(back.levels()[1].label, "a<b>&\"c\"");
    }

    #[test]
    fn large_graph_roundtrip() {
        // A wider cascade to exercise the writer/parser beyond toys.
        let mut b = GraphBuilder::new(48);
        b.begin_level("c1");
        for i in 0..24u32 {
            b.add_check(&[2 * i, 2 * i + 1]);
        }
        b.begin_level("c2");
        for i in 0..12u32 {
            b.add_check(&[48 + 2 * i, 48 + 2 * i + 1]);
        }
        let g = b.build().unwrap();
        let back = from_graphml(&to_graphml(&g)).unwrap();
        assert_eq!(g, back);
    }
}

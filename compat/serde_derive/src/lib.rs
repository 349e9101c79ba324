//! The derive macro for the vendored `serde` subset.
//!
//! Parses `struct` / `enum` definitions directly from the raw token
//! stream (no `syn` / `quote` available offline) and emits string-built
//! implementations of the value-tree `Serialize` trait.
//! Supported shapes: non-generic structs (unit, tuple, named) and enums
//! whose variants are unit, tuple, or struct-like. `#[serde(...)]`
//! attributes are not supported and none exist in this workspace.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive the value-tree `Serialize` trait.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

struct Item {
    name: String,
    kind: Kind,
}

enum Kind {
    UnitStruct,
    TupleStruct(usize),
    NamedStruct(Vec<String>),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);
    let keyword = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected `struct` or `enum`, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected type name, found {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde compat derive does not support generic types (on `{name}`)");
    }
    let kind = match keyword.as_str() {
        "struct" => match tokens.get(i) {
            None => Kind::UnitStruct,
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Kind::UnitStruct,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(other) => panic!("unexpected token after struct name: {other}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g.stream()))
            }
            _ => panic!("expected enum body for `{name}`"),
        },
        other => panic!("cannot derive `Serialize` for `{other}` items"),
    };
    Item { name, kind }
}

fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // `#` + bracketed attribute group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g))
                    if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // pub(crate) etc.
                }
            }
            _ => break,
        }
    }
}

/// Parse `name: Type, ...` from a brace-delimited field list.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("expected field name, found {other}"),
        };
        fields.push(name);
        // Skip to past the `:` then consume the type until a top-level comma.
        i += 2;
        while i < tokens.len() {
            if matches!(&tokens[i], TokenTree::Punct(p)
                if p.as_char() == ',' && angle_depth_is_zero(&tokens[..i]))
            {
                i += 1;
                break;
            }
            i += 1;
        }
    }
    fields
}

/// True when `<` / `>` punctuation in the prefix is balanced — i.e. a
/// comma at this position is a field separator, not inside `Vec<(A, B)>`.
/// Parenthesised/bracketed groups are opaque `TokenTree::Group`s, so only
/// angle brackets need tracking.
fn angle_depth_is_zero(prefix: &[TokenTree]) -> bool {
    let mut depth = 0i32;
    for tok in prefix {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                _ => {}
            }
        }
    }
    depth == 0
}

/// Count fields in a paren-delimited tuple field list.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    for i in 0..tokens.len() {
        if matches!(&tokens[i], TokenTree::Punct(p)
            if p.as_char() == ',' && angle_depth_is_zero(&tokens[..i]))
        {
            // Ignore a trailing comma.
            if i + 1 < tokens.len() {
                count += 1;
            }
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("expected variant name, found {other}"),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Shape::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Shape::Unit,
        };
        // Skip a discriminant (`= expr`) if present, then the comma.
        while i < tokens.len() {
            if matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    variants
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::UnitStruct => "::serde::Value::Null".to_string(),
        Kind::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Kind::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", elems.join(", "))
        }
        Kind::NamedStruct(fields) => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| format!("({f:?}.to_string(), ::serde::Serialize::to_value(&self.{f}))"))
                .collect();
            format!("::serde::Value::Object(vec![{}])", pairs.join(", "))
        }
        Kind::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.shape {
                        Shape::Unit => {
                            format!("Self::{vname} => ::serde::Value::Str({vname:?}.to_string()),")
                        }
                        Shape::Tuple(1) => format!(
                            "Self::{vname}(__f0) => ::serde::Value::Object(vec![\
                             ({vname:?}.to_string(), ::serde::Serialize::to_value(__f0))]),"
                        ),
                        Shape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                            let elems: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Serialize::to_value(__f{i})"))
                                .collect();
                            format!(
                                "Self::{vname}({}) => ::serde::Value::Object(vec![\
                                 ({vname:?}.to_string(), ::serde::Value::Array(vec![{}]))]),",
                                binds.join(", "),
                                elems.join(", ")
                            )
                        }
                        Shape::Named(fields) => {
                            let binds = fields.join(", ");
                            let pairs: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "({f:?}.to_string(), ::serde::Serialize::to_value({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "Self::{vname} {{ {binds} }} => ::serde::Value::Object(vec![\
                                 ({vname:?}.to_string(), ::serde::Value::Object(vec![{}]))]),",
                                pairs.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

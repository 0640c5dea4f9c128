//! Offline stand-in for `serde_derive`.
//!
//! Generates `Serialize` / `Deserialize` impls against the streaming
//! traits in the workspace's `serde` shim: writers that go field by
//! field, and readers that match each key as it arrives (the first of
//! two duplicate keys wins, unknown keys are skipped, an absent field
//! reads as `null` would). Because the build environment has no
//! crates.io access, this proc macro cannot use `syn`/`quote`; it
//! parses the derive input token stream by hand.
//!
//! Supported shapes (everything the workspace derives on):
//! named-field structs, tuple structs (single-field newtypes serialize
//! transparently), unit structs, and enums with unit / newtype / tuple
//! / struct variants (externally tagged, like real serde). `#[serde]`
//! attributes and generic types are intentionally unsupported and
//! produce a compile error naming the offending item.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed shape of the derive target.
enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

struct Item {
    name: String,
    shape: Shape,
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl must parse")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl must parse")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn ident_of(tok: &TokenTree) -> Option<String> {
    match tok {
        TokenTree::Ident(id) => Some(id.to_string()),
        _ => None,
    }
}

/// Skips `#[...]` attribute sequences (including doc comments, which
/// arrive as `#[doc = "..."]`).
fn skip_attrs(toks: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < toks.len() {
        match (&toks[i], &toks[i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                i += 2;
            }
            _ => break,
        }
    }
    i
}

/// Skips `pub`, `pub(crate)`, `pub(in ...)`.
fn skip_vis(toks: &[TokenTree], mut i: usize) -> usize {
    if i < toks.len() && ident_of(&toks[i]).as_deref() == Some("pub") {
        i += 1;
        if let Some(TokenTree::Group(g)) = toks.get(i) {
            if g.delimiter() == Delimiter::Parenthesis {
                i += 1;
            }
        }
    }
    i
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs(&toks, 0);
    i = skip_vis(&toks, i);

    let kw = ident_of(&toks[i]).expect("expected `struct` or `enum`");
    i += 1;
    let name = ident_of(&toks[i]).expect("expected item name");
    i += 1;

    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        assert!(
            p.as_char() != '<',
            "serde shim derive does not support generic type `{name}`"
        );
    }

    let shape = match kw.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_top_level_segments(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
            other => panic!("unsupported struct body for `{name}`: {other:?}"),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("unsupported enum body for `{name}`: {other:?}"),
        },
        other => panic!("serde shim derive supports struct/enum only, got `{other}`"),
    };

    Item { name, shape }
}

/// Parses `name: Type, ...` field lists, tolerating attributes,
/// visibility, and generic types containing commas (angle-bracket depth
/// is tracked; `>` never takes the depth below zero, so `->` in
/// function types is harmless).
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs(&toks, i);
        i = skip_vis(&toks, i);
        if i >= toks.len() {
            break;
        }
        let field = ident_of(&toks[i]).expect("expected field name");
        i += 1;
        match &toks[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!("expected `:` after field `{field}`, got {other:?}"),
        }
        fields.push(field);
        i = skip_to_top_level_comma(&toks, i);
    }
    fields
}

/// Advances past one type/expression to just after the next top-level
/// comma (or to the end).
fn skip_to_top_level_comma(toks: &[TokenTree], mut i: usize) -> usize {
    let mut angle_depth: usize = 0;
    while i < toks.len() {
        if let TokenTree::Punct(p) = &toks[i] {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    i
}

/// Counts comma-separated segments (tuple-struct / tuple-variant arity).
fn count_top_level_segments(stream: TokenStream) -> usize {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut count = 0;
    let mut i = 0;
    while i < toks.len() {
        count += 1;
        i = skip_to_top_level_comma(&toks, i);
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs(&toks, i);
        if i >= toks.len() {
            break;
        }
        let name = ident_of(&toks[i]).expect("expected variant name");
        i += 1;
        let kind = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_top_level_segments(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        variants.push(Variant { name, kind });
        // Skip any explicit discriminant (`= expr`) up to the comma.
        i = skip_to_top_level_comma(&toks, i);
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

const IMPL_ATTRS: &str = "#[automatically_derived]\n#[allow(warnings, clippy::all)]\n";

/// Statements writing `{"f": <f>, ...}`, each field's value an
/// expression built from its name by `value`.
fn ser_object(fields: &[String], value: impl Fn(&str) -> String) -> String {
    let mut out = String::from("__w.begin_object();");
    for f in fields {
        out.push_str(&format!(
            " __w.key(\"{f}\"); ::serde::Serialize::serialize({}, __w);",
            value(f)
        ));
    }
    out.push_str(" __w.end_object();");
    out
}

/// Statements writing `[<e0>, ...]` from the element expressions.
fn ser_array(items: &[String]) -> String {
    let mut out = String::from("__w.begin_array();");
    for item in items {
        out.push_str(&format!(
            " __w.element(); ::serde::Serialize::serialize({item}, __w);"
        ));
    }
    out.push_str(" __w.end_array();");
    out
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let mut extra = String::new();
    let body = match &item.shape {
        Shape::NamedStruct(fields) => ser_object(fields, |f| format!("&self.{f}")),
        Shape::TupleStruct(1) => {
            extra = "fn __map_key(&self) -> ::std::borrow::Cow<'_, str> { \
                     ::serde::Serialize::__map_key(&self.0) }"
                .to_string();
            "::serde::Serialize::serialize(&self.0, __w);".to_string()
        }
        Shape::TupleStruct(n) => {
            let items: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            ser_array(&items)
        }
        Shape::UnitStruct => "__w.null();".to_string(),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants.iter().map(|v| ser_variant_arm(name, v)).collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "{IMPL_ATTRS}impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self, __w: &mut ::serde::Writer) {{ {body} }}\n\
         {extra}\n\
         }}"
    )
}

fn ser_variant_arm(name: &str, v: &Variant) -> String {
    let vname = &v.name;
    let (pattern, inner) = match &v.kind {
        VariantKind::Unit => return format!("{name}::{vname} => __w.str(\"{vname}\"),"),
        VariantKind::Tuple(1) => (
            "(__f0)".to_string(),
            "::serde::Serialize::serialize(__f0, __w);".to_string(),
        ),
        VariantKind::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
            (format!("({})", binds.join(", ")), ser_array(&binds))
        }
        VariantKind::Struct(fields) => (
            format!(" {{ {} }}", fields.join(", ")),
            ser_object(fields, str::to_string),
        ),
    };
    format!(
        "{name}::{vname}{pattern} => {{ __w.begin_object(); __w.key(\"{vname}\"); \
         {inner} __w.end_object(); }}"
    )
}

fn err(msg: &str) -> String {
    format!("::std::result::Result::Err(::serde::Error::custom(\"{msg}\"))")
}

/// A block reading an object into `ctor { fields }`: each key as it
/// arrives, the first of two duplicates winning, unknown keys skipped,
/// and an absent field read as `null` would be.
fn de_object(ctor: &str, fields: &[String]) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (i, fname) in fields.iter().enumerate() {
        slots.push_str(&format!("let mut __f{i} = ::std::option::Option::None;\n"));
        arms.push_str(&format!(
            "\"{fname}\" if __f{i}.is_none() => \
             __f{i} = ::std::option::Option::Some(::serde::__field(__r, \"{fname}\")?),\n"
        ));
        inits.push_str(&format!(
            "{fname}: match __f{i} {{ ::std::option::Option::Some(__v) => __v, \
             ::std::option::Option::None => ::serde::__missing(\"{fname}\")? }},\n"
        ));
    }
    format!(
        "{{\n{slots}\
         __r.begin_object()?;\n\
         while let ::std::option::Option::Some(__k) = __r.next_key()? {{\n\
         match &*__k {{\n{arms}_ => __r.skip_value()?,\n}}\n\
         }}\n\
         {ctor} {{ {inits} }}\n\
         }}"
    )
}

/// A block reading an `n`-element array into `ctor(e0, ...)`.
fn de_array(ctor: &str, n: usize, what: &str) -> String {
    let binds: Vec<String> = (0..n).map(|i| format!("__f{i}")).collect();
    let reads: String = binds
        .iter()
        .map(|b| format!("let {b} = ::serde::__element(__r, {n}, \"{what}\")?;\n"))
        .collect();
    format!(
        "{{\n__r.begin_array()?;\n{reads}\
         ::serde::__end_array(__r, {n}, \"{what}\")?;\n\
         {ctor}({})\n\
         }}",
        binds.join(", ")
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let mut extra = String::new();
    let body = match &item.shape {
        Shape::NamedStruct(fields) => {
            format!("::std::result::Result::Ok({})", de_object(name, fields))
        }
        Shape::TupleStruct(1) => {
            extra = format!(
                "fn __from_key(__k: &str) -> ::std::result::Result<Self, ::serde::Error> {{ \
                 ::std::result::Result::Ok({name}(::serde::Deserialize::__from_key(__k)?)) }}"
            );
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__r)?))")
        }
        Shape::TupleStruct(n) => format!(
            "::std::result::Result::Ok({})",
            de_array(name, *n, &format!("struct {name}"))
        ),
        Shape::UnitStruct => format!("__r.skip_value()?; ::std::result::Result::Ok({name})"),
        Shape::Enum(variants) => de_enum(name, variants),
    };
    format!(
        "{IMPL_ATTRS}impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__r: &mut ::serde::Reader<'_>) -> \
         ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
         {extra}\n\
         }}"
    )
}

/// Reads an externally tagged enum: a unit variant as its name, any
/// other as an object with exactly one key, its name.
fn de_enum(name: &str, variants: &[Variant]) -> String {
    let unknown = |tag: &str| {
        format!(
            "::std::result::Result::Err(::serde::Error::custom(::std::format!(\
             \"unknown variant `{{}}` of enum {name}\", {tag})))"
        )
    };
    let not_a_variant = err(&format!("expected variant of enum {name}"));
    let mut unit_arms = String::new();
    let mut tagged_arms = String::new();
    for v in variants {
        let vname = &v.name;
        let ctor = format!("{name}::{vname}");
        match &v.kind {
            VariantKind::Unit => unit_arms.push_str(&format!(
                "\"{vname}\" => ::std::result::Result::Ok({ctor}),\n"
            )),
            VariantKind::Tuple(1) => tagged_arms.push_str(&format!(
                "\"{vname}\" => {ctor}(::serde::Deserialize::deserialize(__r)?),\n"
            )),
            VariantKind::Tuple(n) => tagged_arms.push_str(&format!(
                "\"{vname}\" => {},\n",
                de_array(&ctor, *n, &format!("variant {ctor}"))
            )),
            VariantKind::Struct(fields) => {
                tagged_arms.push_str(&format!("\"{vname}\" => {},\n", de_object(&ctor, fields)))
            }
        }
    }
    format!(
        "match __r.peek() {{\n\
         ::std::option::Option::Some(b'\"') => {{\n\
         let __s = __r.string()?;\n\
         match &*__s {{\n{unit_arms}__other => {},\n}}\n\
         }}\n\
         ::std::option::Option::Some(b'{{') => {{\n\
         __r.begin_object()?;\n\
         let __tag = match __r.next_key()? {{\n\
         ::std::option::Option::Some(__t) => __t,\n\
         ::std::option::Option::None => return {not_a_variant},\n\
         }};\n\
         let __value: Self = match &*__tag {{\n{tagged_arms}__other => return {},\n}};\n\
         if __r.next_key()?.is_some() {{\n\
         return {not_a_variant};\n\
         }}\n\
         ::std::result::Result::Ok(__value)\n\
         }}\n\
         _ => {not_a_variant},\n\
         }}",
        unknown("__other"),
        unknown("__other"),
    )
}

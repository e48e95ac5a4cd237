//! `#[derive(Serialize, Deserialize)]` for the vendored serde shim.
//!
//! Implemented directly on `proc_macro::TokenStream` (the offline build
//! environment has no `syn`/`quote`). Supports the shapes this workspace
//! uses:
//!
//! * structs with named fields, honouring `#[serde(skip)]` (skipped on
//!   serialize, `Default::default()` on deserialize);
//! * tuple structs (newtypes serialize transparently, wider tuples as
//!   arrays);
//! * enums with unit and tuple variants, externally tagged exactly like
//!   serde-JSON (`"Variant"` / `{"Variant": payload}`).
//!
//! Each derive emits one method, the text one: `write_json` appends JSON,
//! `read_json` pulls it from the shim's `json::Reader`. The accepted
//! language: fields in any order, unknown fields skipped, the first of a
//! repeated key wins, a missing field is an error naming it. A derived
//! type's `Value` tree, for a hand-written impl that asks for it, comes
//! from the trait's default bridge through this text.
//!
//! Generic types are intentionally unsupported and produce a compile
//! error pointing here.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    skip: bool,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum Shape {
    Named(Vec<Field>),
    Tuple(Vec<Field>),
    Unit,
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    shape: Shape,
}

/// Derives the shim's `Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse(input);
    gen_serialize(&parsed).parse().expect("generated Serialize impl parses")
}

/// Derives the shim's `Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------- parsing

fn parse(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Outer attributes and visibility.
    skip_attributes(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);

    let kind = match &tokens[i] {
        TokenTree::Ident(id) if id.to_string() == "struct" || id.to_string() == "enum" => id.to_string(),
        other => panic!("serde shim derive: expected `struct` or `enum`, found {other}"),
    };
    i += 1;

    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected type name, found {other}"),
    };
    i += 1;

    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }

    let shape = if kind == "struct" {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(parse_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
            other => panic!("serde shim derive: unsupported struct body for `{name}`: {other:?}"),
        }
    } else {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream(), &name))
            }
            other => panic!("serde shim derive: expected enum body for `{name}`, found {other:?}"),
        }
    };

    Input { name, shape }
}

/// Advances past any `#[...]` attributes, returning whether a
/// `#[serde(skip)]` was among them.
fn take_attributes(tokens: &[TokenTree], i: &mut usize) -> bool {
    let mut skip = false;
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
            if attribute_is_serde_skip(g.stream()) {
                skip = true;
            }
            *i += 2;
        } else {
            *i += 1;
        }
    }
    skip
}

fn skip_attributes(tokens: &[TokenTree], i: &mut usize) {
    take_attributes(tokens, i);
}

fn attribute_is_serde_skip(stream: TokenStream) -> bool {
    // Matches the token shape of `serde(skip)`.
    let parts: Vec<TokenTree> = stream.into_iter().collect();
    match parts.as_slice() {
        [TokenTree::Ident(name), TokenTree::Group(args)] if name.to_string() == "serde" => args
            .stream()
            .into_iter()
            .any(|t| matches!(&t, TokenTree::Ident(id) if id.to_string() == "skip")),
        _ => false,
    }
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis) {
            *i += 1;
        }
    }
}

/// Advances past a type expression until a top-level comma (or the end),
/// tracking `<...>` nesting so commas inside generics are not split on.
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(t) = tokens.get(*i) {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => return,
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let skip = take_attributes(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected field name, found {other:?}"),
        };
        i += 1;
        assert!(
            matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ':'),
            "serde shim derive: expected `:` after field `{name}`"
        );
        i += 1;
        skip_type(&tokens, &mut i);
        i += 1; // past the comma (or end)
        fields.push(Field { name, skip });
    }
    fields
}

fn parse_tuple_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let skip = take_attributes(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        skip_type(&tokens, &mut i);
        i += 1;
        fields.push(Field {
            name: fields.len().to_string(),
            skip,
        });
    }
    fields
}

fn parse_variants(stream: TokenStream, type_name: &str) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        take_attributes(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected variant name in `{type_name}`, found {other:?}"),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantShape::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantShape::Struct(parse_named_fields(g.stream()).into_iter().map(|f| f.name).collect())
            }
            _ => VariantShape::Unit,
        };
        let _ = type_name;
        // Past the trailing comma, if any.
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    variants
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        let mut j = i;
        skip_type(&tokens, &mut j);
        count += 1;
        i = j + 1;
    }
    count
}

// ---------------------------------------------------------------- codegen

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let text = gen_write_json(input);
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn write_json(&self, __out: &mut ::std::string::String) {{\n{text}\n}}\n\
         }}"
    )
}

/// Statements that append `items` to `__out` as the JSON text
/// `open item,item,... close`, where each item is a literal prefix (a key
/// and its colon, or nothing) and the expression of the value after it.
/// Adjacent literals are merged, so a struct costs one `push_str` per field.
fn gen_write_seq(open: &str, items: &[(String, String)], close: &str) -> String {
    let mut code = String::new();
    let mut lit = open.to_string();
    for (i, (prefix, expr)) in items.iter().enumerate() {
        if i > 0 {
            lit.push(',');
        }
        lit.push_str(prefix);
        code.push_str(&format!(
            "__out.push_str({lit:?});\n::serde::Serialize::write_json({expr}, __out);\n"
        ));
        lit.clear();
    }
    lit.push_str(close);
    code.push_str(&format!("__out.push_str({lit:?});\n"));
    code
}

/// Items for [`gen_write_seq`]: each field's `"name":` and its expression.
fn keyed<'a>(names: impl Iterator<Item = &'a String>, expr: impl Fn(&str) -> String) -> Vec<(String, String)> {
    names.map(|n| (format!("\"{n}\":"), expr(n))).collect()
}

fn gen_write_json(input: &Input) -> String {
    let name = &input.name;
    match &input.shape {
        Shape::Named(fields) => {
            let live = fields.iter().filter(|f| !f.skip).map(|f| &f.name);
            gen_write_seq("{", &keyed(live, |n| format!("&self.{n}")), "}")
        }
        Shape::Tuple(fields) if fields.len() == 1 => "::serde::Serialize::write_json(&self.0, __out);".to_string(),
        Shape::Tuple(fields) => {
            let elems: Vec<_> = (0..fields.len())
                .map(|k| (String::new(), format!("&self.{k}")))
                .collect();
            gen_write_seq("[", &elems, "]")
        }
        Shape::Unit => "__out.push_str(\"null\");".to_string(),
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => {
                        arms.push_str(&format!("{name}::{vn} => __out.push_str({:?}),\n", format!("\"{vn}\"")))
                    }
                    VariantShape::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(__p0) => {{\n{}}}\n",
                        gen_write_seq(&format!("{{\"{vn}\":"), &[(String::new(), "__p0".to_string())], "}")
                    )),
                    VariantShape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__p{k}")).collect();
                        let elems: Vec<_> = binds.iter().map(|b| (String::new(), b.clone())).collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => {{\n{}}}\n",
                            binds.join(", "),
                            gen_write_seq(&format!("{{\"{vn}\":["), &elems, "]}")
                        ));
                    }
                    VariantShape::Struct(fields) => arms.push_str(&format!(
                        "{name}::{vn} {{ {} }} => {{\n{}}}\n",
                        fields.join(", "),
                        gen_write_seq(
                            &format!("{{\"{vn}\":{{"),
                            &keyed(fields.iter(), |n| n.to_string()),
                            "}}"
                        )
                    )),
                }
            }
            format!("match self {{\n{arms}}}")
        }
    }
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let text = gen_read_json(input);
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn read_json(__r: &mut ::serde::json::Reader<'_>) -> ::std::result::Result<Self, ::serde::DeError> {{\n{text}\n}}\n\
         }}"
    )
}

/// An expression that reads an object into `ctor { field: .. }`: one slot
/// per live field, filled by the first occurrence of its key; other keys and
/// repeats are skipped. A value that is not an object has no fields, so
/// every live field is then missing.
fn gen_read_fields(ctor: &str, fields: &[Field]) -> String {
    let (mut slots, mut arms, mut inits) = (String::new(), String::new(), String::new());
    for (k, f) in fields.iter().enumerate() {
        let n = &f.name;
        if f.skip {
            inits.push_str(&format!("{n}: ::std::default::Default::default(),\n"));
            continue;
        }
        slots.push_str(&format!("let mut __f{k} = ::std::option::Option::None;\n"));
        arms.push_str(&format!(
            "\"{n}\" if __f{k}.is_none() => __f{k} = ::std::option::Option::Some(::serde::de_helpers::read_field(__r, \"{n}\")?),\n"
        ));
        inits.push_str(&format!("{n}: ::serde::de_helpers::required(__f{k}, \"{n}\")?,\n"));
    }
    format!(
        "{{\n{slots}\
         if __r.peek()? == b'{{' {{\n\
             let mut __more = __r.begin_object()?;\n\
             while __more {{\n\
                 let __k = __r.key()?;\n\
                 match &*__k {{\n{arms}_ => __r.skip_value()?,\n}}\n\
                 __more = __r.object_next()?;\n\
             }}\n\
         }} else {{\n\
             __r.skip_value()?;\n\
         }}\n\
         {ctor} {{\n{inits}}}\n}}"
    )
}

/// An expression that reads an array into `ctor(..)`; elements past the
/// `n`th are skipped.
fn gen_read_elems(ctor: &str, n: usize) -> String {
    if n == 0 {
        return format!("{{ __r.skip_value()?; {ctor}() }}");
    }
    let elems: Vec<String> = (0..n)
        .map(|k| format!("::serde::de_helpers::read_elem(__r, &mut __more, {k})?"))
        .collect();
    format!(
        "{{\n\
         let mut __more = __r.begin_array()?;\n\
         let __t = {ctor}({});\n\
         ::serde::de_helpers::finish_array(__r, __more)?;\n\
         __t\n}}",
        elems.join(", ")
    )
}

fn gen_read_json(input: &Input) -> String {
    let name = &input.name;
    let value = match &input.shape {
        Shape::Named(fields) => gen_read_fields(name, fields),
        Shape::Tuple(fields) if fields.len() == 1 => format!("{name}(::serde::Deserialize::read_json(__r)?)"),
        Shape::Tuple(fields) => gen_read_elems(name, fields.len()),
        Shape::Unit => format!("{{ __r.skip_value()?; {name} }}"),
        Shape::Enum(variants) => return gen_read_enum(name, variants),
    };
    format!("::std::result::Result::Ok({value})")
}

/// `"Variant"` or `{"Variant": payload}` with exactly one key. A unit
/// variant ignores a payload; the other shapes need one.
fn gen_read_enum(name: &str, variants: &[Variant]) -> String {
    let mut bare = String::new();
    let mut tagged = String::new();
    for v in variants {
        let vn = &v.name;
        let ctor = format!("{name}::{vn}");
        let payload = match &v.shape {
            VariantShape::Unit => {
                bare.push_str(&format!("\"{vn}\" => ::std::result::Result::Ok({ctor}),\n"));
                format!("{{ __r.skip_value()?; {ctor} }}")
            }
            VariantShape::Tuple(1) => format!("{ctor}(::serde::Deserialize::read_json(__r)?)"),
            VariantShape::Tuple(n) => gen_read_elems(&ctor, *n),
            VariantShape::Struct(fields) => {
                let fields: Vec<Field> = fields
                    .iter()
                    .map(|f| Field {
                        name: f.clone(),
                        skip: false,
                    })
                    .collect();
                gen_read_fields(&ctor, &fields)
            }
        };
        if !matches!(v.shape, VariantShape::Unit) {
            bare.push_str(&format!(
                "\"{vn}\" => ::std::result::Result::Err(::serde::DeError::msg(\"variant `{vn}` expects a payload\")),\n"
            ));
        }
        tagged.push_str(&format!("\"{vn}\" => {payload},\n"));
    }
    let unknown = format!(
        "::std::result::Result::Err(::serde::DeError::msg(format!(\"unknown variant `{{__other}}` of {name}\")))"
    );
    let not_a_variant = format!("::std::result::Result::Err(::serde::de_helpers::not_a_variant(\"{name}\"))");
    format!(
        "match __r.peek()? {{\n\
             b'\"' => match &*__r.string()? {{\n{bare}__other => {unknown},\n}},\n\
             b'{{' => {{\n\
                 if !__r.begin_object()? {{\n\
                     return {not_a_variant};\n\
                 }}\n\
                 let __value = match &*__r.key()? {{\n{tagged}\
                     __other => return {unknown},\n\
                 }};\n\
                 if __r.object_next()? {{\n\
                     return {not_a_variant};\n\
                 }}\n\
                 ::std::result::Result::Ok(__value)\n\
             }}\n\
             _ => {not_a_variant},\n\
         }}"
    )
}

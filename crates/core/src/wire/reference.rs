//! The tree-walking decoders that [`Request::parse`] and
//! [`Response::parse`] replaced, kept as the differential test's oracle:
//! each parses the whole line into a [`Json`] tree, then looks its fields
//! up in the tree. The test drives both decoders over seeded mutations of
//! every request and response kind and requires the same `Ok` value or the
//! same error text from each, and the same [`Request::peek_id`].

use super::*;

/// Extracts just the `id` of a line, for error responses to requests
/// that do not parse fully. Returns `None` when the line has no
/// readable non-negative integer `id` (bad JSON, missing field, wrong
/// type) — the server answers such lines with the documented sentinel
/// id 0, since the protocol has no way to address a reply otherwise.
pub(super) fn peek_id(line: &str) -> Option<u64> {
    Json::parse(line.trim())
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_u64))
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a description of the first problem (bad JSON, missing or
/// ill-typed field, unknown op).
pub(super) fn parse_request(line: &str) -> Result<Request, WireError> {
    let v = Json::parse(line.trim()).map_err(|e| wire_err(e.to_string()))?;
    let id = u64_field(&v, "id")?;
    let timeout_ms = match v.get("timeout_ms") {
        None | Some(Json::Null) => None,
        Some(t) => Some(
            t.as_u64()
                .ok_or_else(|| wire_err("field 'timeout_ms' must be a non-negative integer"))?,
        ),
    };
    let seq = match v.get("seq") {
        None | Some(Json::Null) => None,
        Some(s) => Some(
            s.as_u64()
                .ok_or_else(|| wire_err("field 'seq' must be a non-negative integer"))?,
        ),
    };
    let op = field(&v, "op")?
        .as_str()
        .ok_or_else(|| wire_err("field 'op' must be a string"))?;
    let body = match op {
        "ping" => RequestBody::Ping,
        "dot" => RequestBody::Dot {
            precision: precision_field(&v)?,
            x: words_field(&v, "x")?,
            w: words_field(&v, "w")?,
        },
        "load_model" => {
            let protos = field(&v, "prototypes")?
                .as_array()
                .ok_or_else(|| wire_err("field 'prototypes' must be an array"))?;
            let prototypes = protos
                .iter()
                .map(|p| {
                    p.as_u64_array()
                        .ok_or_else(|| wire_err("each prototype must be an array of integers"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            RequestBody::LoadModel {
                precision: precision_field(&v)?,
                prototypes,
            }
        }
        "classify" => RequestBody::Classify {
            x: words_field(&v, "x")?,
        },
        "exec_program" => RequestBody::ExecProgram {
            instrs: instrs_field(&v)?,
        },
        "store_program" => RequestBody::StoreProgram {
            instrs: instrs_field(&v)?,
            name: match v.get("name") {
                None | Some(Json::Null) => None,
                Some(n) => Some(
                    n.as_str()
                        .ok_or_else(|| wire_err("field 'name' must be a string"))?
                        .to_string(),
                ),
            },
        },
        "lint_program" => RequestBody::LintProgram {
            instrs: instrs_field(&v)?,
        },
        "run_stored" => {
            let inputs = match v.get("inputs") {
                None | Some(Json::Null) => Vec::new(),
                Some(arr) => arr
                    .as_array()
                    .ok_or_else(|| wire_err("field 'inputs' must be an array"))?
                    .iter()
                    .map(|e| match e {
                        Json::Null => Ok(None),
                        other => other.as_u64_array().map(Some).ok_or_else(|| {
                            wire_err("each input must be an array of integers or null")
                        }),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            };
            RequestBody::RunStored {
                target: stored_target_field(&v)?,
                inputs,
            }
        }
        "list_programs" => RequestBody::ListPrograms,
        "delete_program" => RequestBody::DeleteProgram {
            target: stored_target_field(&v)?,
        },
        "open_session" => RequestBody::OpenSession,
        "resume_session" => RequestBody::ResumeSession {
            token: field(&v, "token")?
                .as_str()
                .ok_or_else(|| wire_err("field 'token' must be a string"))?
                .to_string(),
        },
        "stats" => RequestBody::Stats,
        "shutdown" => RequestBody::Shutdown,
        other => match LaneOp::from_name(other) {
            Some(op) => RequestBody::Lanes {
                op,
                precision: precision_field(&v)?,
                a: words_field(&v, "a")?,
                b: words_field(&v, "b")?,
            },
            None => return Err(wire_err(format!("unknown op '{other}'"))),
        },
    };
    Ok(Request {
        id,
        timeout_ms,
        seq,
        body,
    })
}

/// Parses one response line.
///
/// # Errors
///
/// Returns a description of the first problem.
pub(super) fn parse_response(line: &str) -> Result<Response, WireError> {
    let v = Json::parse(line.trim()).map_err(|e| wire_err(e.to_string()))?;
    let id = u64_field(&v, "id")?;
    let ok = field(&v, "ok")?
        .as_bool()
        .ok_or_else(|| wire_err("field 'ok' must be a bool"))?;
    if !ok {
        let msg = field(&v, "error")?
            .as_str()
            .ok_or_else(|| wire_err("field 'error' must be a string"))?;
        // Unknown kinds/limits from a newer server degrade to generic
        // rather than failing the parse.
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .and_then(ErrorKind::from_name)
            .unwrap_or_default();
        let limit = v
            .get("limit")
            .and_then(Json::as_str)
            .and_then(LimitKind::from_name);
        let retry_after_ms = v.get("retry_after_ms").and_then(Json::as_u64);
        let code = v.get("code").and_then(Json::as_str).map(|s| s.to_string());
        let index = v.get("index").and_then(Json::as_u64);
        return Ok(Response {
            id,
            body: ResponseBody::Error(ErrorBody {
                kind,
                limit,
                retry_after_ms,
                code,
                index,
                message: msg.to_string(),
            }),
        });
    }
    let kind = field(&v, "kind")?
        .as_str()
        .ok_or_else(|| wire_err("field 'kind' must be a string"))?;
    let body = match kind {
        "pong" => ResponseBody::Pong,
        "ok" => ResponseBody::Ok,
        "scalar" => ResponseBody::Scalar(u64_field(&v, "result")?),
        "words" => ResponseBody::Words(words_field(&v, "result")?),
        "class" => ResponseBody::Class(
            u64_field(&v, "result")?
                .try_into()
                .map_err(|_| wire_err("class index out of range"))?,
        ),
        "program" => {
            let r = field(&v, "result")?;
            let outputs = field(r, "outputs")?
                .as_array()
                .ok_or_else(|| wire_err("field 'outputs' must be an array"))?
                .iter()
                .map(|o| {
                    o.as_u64_array()
                        .ok_or_else(|| wire_err("each output must be an array of integers"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let energy_fj = field(r, "energy_fj")?
                .as_array()
                .ok_or_else(|| wire_err("field 'energy_fj' must be an array"))?
                .iter()
                .map(|e| {
                    e.as_f64()
                        .ok_or_else(|| wire_err("each energy entry must be a number"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            ResponseBody::Program(ProgramReport {
                outputs,
                cycles: words_field(r, "cycles")?,
                energy_fj,
            })
        }
        "stored" => ResponseBody::Stored(stored_from_json(field(&v, "result")?)?),
        "diagnostics" => {
            ResponseBody::Diagnostics(diags_from_json(field(&v, "result")?, "field 'result'")?)
        }
        "stats" => ResponseBody::Stats(activity_from_json(field(&v, "result")?)?),
        "session" => ResponseBody::Session(session_from_json(field(&v, "result")?)?),
        "programs" => ResponseBody::Programs(programs_from_json(field(&v, "result")?)?),
        other => return Err(wire_err(format!("unknown response kind '{other}'"))),
    };
    Ok(Response { id, body })
}

/// Parses the `pid`-or-`name` address shared by `run_stored` and
/// `delete_program` (exactly one must be present).
fn stored_target_field(v: &Json) -> Result<StoredTarget, WireError> {
    match (v.get("pid"), v.get("name")) {
        (Some(p), None) => p
            .as_u64()
            .map(StoredTarget::Pid)
            .ok_or_else(|| wire_err("field 'pid' must be a non-negative integer")),
        (None, Some(n)) => n
            .as_str()
            .map(|s| StoredTarget::Name(s.to_string()))
            .ok_or_else(|| wire_err("field 'name' must be a string")),
        _ => Err(wire_err(
            "exactly one of 'pid' or 'name' must address the stored program",
        )),
    }
}

/// Parses the `instrs` array shared by `exec_program`, `store_program`
/// and `lint_program`.
fn instrs_field(v: &Json) -> Result<Vec<Instr>, WireError> {
    instr_list(field(v, "instrs")?)
}

mod tests {
    use super::super::tests::{pinned_requests, pinned_responses};
    use super::*;
    use std::fmt::Debug;

    /// SplitMix64: the mutator's generator.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            (splitmix(&mut self.0) % n as u64) as usize
        }

        fn pick<'t>(&mut self, items: &[&'t str]) -> &'t str {
            items[self.below(items.len())]
        }
    }

    /// Raw value texts a mutation may put anywhere a value stands.
    const VALUES: &[&str] = &[
        "null",
        "-1",
        "1.5",
        "1e3",
        "18446744073709551616",
        "18446744073709551615",
        "0",
        "007",
        "-0",
        "true",
        "\"x\"",
        "\"\\u0070ing\"",
        "\"\\ud83d\\ude00\"",
        "[]",
        "{}",
        "[1,2]",
        "[null]",
        "[[1],[2]]",
        "[[1],null]",
        "[-1]",
        "[1.5]",
        "[1e3]",
        "[18446744073709551616]",
        "\"dot\"",
        "\"classify\"",
        "\"run_stored\"",
        "\"load_model\"",
        "\"scalar\"",
        "\"words\"",
        "\"program\"",
        "\"stats\"",
        "{\"outputs\":[[1]],\"cycles\":[1],\"energy_fj\":[1.5]}",
        "{\"requests\":1,\"errors\":0,\"cycles\":2,\"energy_fj\":3}",
    ];

    /// Raw key texts a mutation may insert: every field the decoders read,
    /// escaped spellings of two of them, and unknown keys.
    const KEYS: &[&str] = &[
        "\"id\"",
        "\"op\"",
        "\"seq\"",
        "\"timeout_ms\"",
        "\"precision\"",
        "\"x\"",
        "\"w\"",
        "\"a\"",
        "\"b\"",
        "\"prototypes\"",
        "\"instrs\"",
        "\"name\"",
        "\"pid\"",
        "\"inputs\"",
        "\"token\"",
        "\"ok\"",
        "\"error\"",
        "\"kind\"",
        "\"limit\"",
        "\"retry_after_ms\"",
        "\"code\"",
        "\"index\"",
        "\"result\"",
        "\"outputs\"",
        "\"cycles\"",
        "\"energy_fj\"",
        "\"\\u0069d\"",
        "\"k\\u0069nd\"",
        "\"zz\"",
    ];

    /// Texts a mutation may insert at any character boundary.
    const INSERTS: &[&str] = &[
        " ",
        "\t",
        "\n",
        "\r\n",
        "\u{a0}",
        "\u{b}",
        "\\n",
        "\\\"",
        "\\\\",
        "\\u00e9",
        "\\ud83d\\ude00",
        "\\ud83d",
        "\\q",
        "\\u12",
        "null",
        ",",
        ":",
        "\"",
        "[",
        "}",
    ];

    /// A placeholder the serializer writes as `"\u0000<tag><n>\u0000"`,
    /// swapped for raw text after serialization.
    fn marker(tag: &str, n: usize) -> String {
        format!("\u{0}{tag}{n}\u{0}")
    }

    fn unmark(line: &str, tag: &str, n: usize, raw: &str) -> String {
        line.replace(&format!("\"\\u0000{tag}{n}\\u0000\""), raw)
    }

    /// `[[…[1]…]]` nested `levels` deep.
    fn deep(levels: usize) -> String {
        "[".repeat(levels) + "1" + &"]".repeat(levels)
    }

    fn count_nodes(v: &Json) -> usize {
        1 + match v {
            Json::Arr(items) => items.iter().map(count_nodes).sum(),
            Json::Obj(fields) => fields.iter().map(|(_, v)| count_nodes(v)).sum(),
            _ => 0,
        }
    }

    /// The `k`-th node of `v` in pre-order.
    fn node(v: &mut Json, k: usize) -> &mut Json {
        if k == 0 {
            return v;
        }
        let mut k = k - 1;
        let children: Vec<&mut Json> = match v {
            Json::Arr(items) => items.iter_mut().collect(),
            Json::Obj(fields) => fields.iter_mut().map(|(_, v)| v).collect(),
            _ => unreachable!("leaves have no k-th child"),
        };
        for child in children {
            let n = count_nodes(child);
            if k < n {
                return node(child, k);
            }
            k -= n;
        }
        unreachable!("k is below the node count")
    }

    /// One structural mutation of a random node. Raw texts are left as
    /// markers in `raws` (tag `V` for values, `K` for keys).
    fn mutate_tree(rng: &mut Rng, v: &mut Json, raws: &mut Vec<(&'static str, String)>) {
        let k = rng.below(count_nodes(v));
        let target = node(v, k);
        let raw_value = |rng: &mut Rng, raws: &mut Vec<(&'static str, String)>| {
            let raw = if rng.below(8) == 0 {
                deep(58 + rng.below(10))
            } else {
                rng.pick(VALUES).to_string()
            };
            raws.push(("V", raw));
            Json::Str(marker("V", raws.len() - 1))
        };
        match target {
            Json::Obj(fields) if !fields.is_empty() && rng.below(3) > 0 => {
                let i = rng.below(fields.len());
                match rng.below(5) {
                    // Duplicate a field, maybe with a new value.
                    0 => {
                        let mut dup = fields[i].clone();
                        if rng.below(2) == 0 {
                            dup.1 = raw_value(rng, raws);
                        }
                        let at = rng.below(fields.len() + 1);
                        fields.insert(at, dup);
                    }
                    1 => {
                        fields.remove(i);
                    }
                    2 => {
                        let j = rng.below(fields.len());
                        fields.swap(i, j);
                    }
                    // A known, escaped or unknown key with a raw value.
                    _ => {
                        raws.push(("K", rng.pick(KEYS).to_string()));
                        let key = marker("K", raws.len() - 1);
                        let value = raw_value(rng, raws);
                        let at = rng.below(fields.len() + 1);
                        fields.insert(at, (key, value));
                    }
                }
            }
            Json::Arr(items) if !items.is_empty() && rng.below(2) == 0 => {
                let i = rng.below(items.len());
                match rng.below(3) {
                    0 => {
                        items.remove(i);
                    }
                    1 => {
                        let dup = items[i].clone();
                        items.insert(i, dup);
                    }
                    _ => items[i] = raw_value(rng, raws),
                }
            }
            _ => *target = raw_value(rng, raws),
        }
    }

    /// A char boundary of `s`.
    fn boundary(rng: &mut Rng, s: &str) -> usize {
        let mut at = rng.below(s.len() + 1);
        while !s.is_char_boundary(at) {
            at -= 1;
        }
        at
    }

    /// One textual mutation: a truncation, a flipped bit of an ASCII byte
    /// (the line stays UTF-8), or an inserted text.
    fn mutate_text(rng: &mut Rng, line: &mut String) {
        match rng.below(3) {
            0 => {
                let at = boundary(rng, line);
                line.truncate(at);
            }
            1 => {
                let ascii: Vec<usize> = line
                    .bytes()
                    .enumerate()
                    .filter(|(_, b)| b.is_ascii())
                    .map(|(i, _)| i)
                    .collect();
                if !ascii.is_empty() {
                    let i = ascii[rng.below(ascii.len())];
                    let flipped = line.as_bytes()[i] ^ (1 << rng.below(7));
                    line.replace_range(i..=i, &char::from(flipped).to_string());
                }
            }
            _ => {
                let at = boundary(rng, line);
                line.insert_str(at, rng.pick(INSERTS));
            }
        }
    }

    fn mutate(rng: &mut Rng, seed: &str) -> String {
        let mut line = seed.to_string();
        let tree = Json::parse(seed).ok().filter(|_| rng.below(4) > 0);
        if let Some(mut tree) = tree {
            let mut raws = Vec::new();
            for _ in 0..1 + rng.below(3) {
                mutate_tree(rng, &mut tree, &mut raws);
            }
            line = tree.to_string();
            for (n, (tag, raw)) in raws.iter().enumerate() {
                line = unmark(&line, tag, n, raw);
            }
        }
        if rng.below(3) == 0 {
            for _ in 0..1 + rng.below(2) {
                mutate_text(rng, &mut line);
            }
        }
        line
    }

    /// Asserts both decoders agree on `line`; returns whether it decoded.
    fn agree<T: PartialEq + Debug>(
        line: &str,
        new: Result<T, WireError>,
        tree: Result<T, WireError>,
    ) -> bool {
        match (new, tree) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{line:?}");
                true
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{line:?}");
                false
            }
            (a, b) => panic!("{line:?}: one-pass {a:?} but tree {b:?}"),
        }
    }

    /// Lines beyond the serializer's own output: reordered, duplicated,
    /// unknown, escaped and null fields, a `result` before its `kind`, and
    /// Unicode whitespace around the object.
    const EXTRA: &[&str] = &[
        r#"{"op":"dot","w":[1],"x":[2],"precision":8,"id":3}"#,
        r#"{"id":1,"id":2,"op":"ping","op":"stats"}"#,
        r#"{"id":1,"op":"classify","x":[1],"x":"bad","extra":{"deep":[[[null]]]}}"#,
        r#"{"\u0069d":4,"op":"p\u0069ng"}"#,
        r#"{"id":1,"op":"run_stored","name":null}"#,
        r#"{"id":1,"op":"run_stored","pid":null}"#,
        r#"{"id":1,"op":"store_program","instrs":[],"name":null}"#,
        r#"{"id":1,"op":"load_model","prototypes":[[1],null],"precision":8}"#,
        r#"{"id":1,"op":"run_stored","pid":2,"inputs":null}"#,
        r#"{"id":5,"result":7,"ok":true,"kind":"scalar"}"#,
        r#"{"result":{"cycles":[1],"energy_fj":[2,1.5],"outputs":[[3]]},"kind":"program","ok":true,"id":6}"#,
        r#"{"id":7,"ok":true,"result":[1,2],"kind":"words","kind":"scalar"}"#,
        r#"{"id":8,"ok":true,"kind":"words","result":[1,2],"result":3}"#,
        r#"{"id":9,"ok":false,"error":"e","kind":7,"limit":"inflight","retry_after_ms":1.5,"index":-1}"#,
        r#"{"id":10,"ok":"true","kind":"pong"}"#,
        "\u{a0}{\"id\":11,\"ok\":true,\"kind\":\"pong\"}\u{2028}",
        " \t{\"id\":12,\"op\":\"ping\"}\r\n",
        "\u{c}{\"id\":13,\"op\":\"nope\"}\u{2028}",
        "[1,2]",
        "7",
    ];

    /// Integer arrays at the edges of numbers and of the plain `[d,d,…,d]`
    /// form that `Parser::u64s` reads in one loop (the test adds the powers
    /// of ten). Each is placed in a line as a request's `x` and `inputs`
    /// row, and as a response's `words` result and `outputs` row.
    const ARRAYS: &[&str] = &[
        "[0,9,10,99,100,999,1000]",
        "[18446744073709551615]",
        "[0,18446744073709551615,1]",
        "[18446744073709551616]",
        "[1,18446744073709551616]",
        "[1234567890123456789012345]",
        "[007,7]",
        "[-0]",
        "[1.0]",
        "[2,1e2]",
        "[ 1,2]",
        "[1 ,2]",
        "[1, 2]",
        "[1,2 ]",
        "[\t1,\r\n2\n]",
        "[]",
        "[ ]",
        "[,1]",
        "[1,]",
        "[1,,2]",
        "[1 2]",
        "[1,[2]]",
        "[1,2",
    ];

    /// The lines that place `array` in each of its four fields.
    fn array_lines(array: &str) -> [String; 4] {
        [
            format!(r#"{{"id":1,"op":"classify","x":{array}}}"#),
            format!(r#"{{"id":2,"op":"run_stored","pid":0,"inputs":[{array},null]}}"#),
            format!(r#"{{"id":3,"ok":true,"kind":"words","result":{array}}}"#),
            format!(
                r#"{{"id":4,"ok":true,"kind":"program","result":{{"outputs":[[1],{array}],"cycles":[1,2],"energy_fj":[1.5,2]}}}}"#
            ),
        ]
    }

    #[test]
    fn decoders_match_the_tree_reference_on_mutated_lines() {
        let mut seeds: Vec<String> = pinned_requests()
            .iter()
            .map(Request::to_json_line)
            .collect();
        for op in ["add", "mult", "and", "or", "xor", "nand", "nor"] {
            seeds.push(format!(
                r#"{{"id":3,"op":"{op}","precision":4,"a":[1,15],"b":[3,9]}}"#
            ));
        }
        seeds.extend(pinned_responses().iter().map(Response::to_json_line));
        for body in [
            ErrorBody::overloaded(Some(50), "server overloaded"),
            ErrorBody::deadline("deadline expired in queue"),
            ErrorBody::session_expired("gone"),
            ErrorBody::bad_token("unknown session token"),
            ErrorBody::invalid_program("E001", None, "too many registers"),
        ] {
            seeds.push(
                Response {
                    id: 20,
                    body: ResponseBody::Error(body),
                }
                .to_json_line(),
            );
        }
        seeds.extend(EXTRA.iter().map(|s| s.to_string()));
        seeds.extend(ARRAYS.iter().flat_map(|a| array_lines(a)));
        // Both sides of every power of ten up to 10^19, a pair per array.
        for k in 1..=19 {
            let pair = format!("[{},{}]", 10u64.pow(k) - 1, 10u64.pow(k));
            seeds.extend(array_lines(&pair));
        }

        let mut rng = Rng(0x5EED_F11E);
        let (mut lines, mut requests, mut responses) = (0, 0, 0);
        for round in 0..120 {
            for seed in &seeds {
                let line = if round == 0 {
                    seed.clone()
                } else {
                    mutate(&mut rng, seed)
                };
                lines += 1;
                requests += usize::from(agree(&line, Request::parse(&line), parse_request(&line)));
                responses +=
                    usize::from(agree(&line, Response::parse(&line), parse_response(&line)));
                assert_eq!(Request::peek_id(&line), peek_id(&line), "{line:?}");
            }
        }
        // The mutations must leave a fair share of lines decodable (about
        // one in five of each half at this seed), or the test would
        // compare little more than errors.
        assert!(requests * 12 >= lines, "{requests} requests of {lines}");
        assert!(responses * 12 >= lines, "{responses} responses of {lines}");
    }
}

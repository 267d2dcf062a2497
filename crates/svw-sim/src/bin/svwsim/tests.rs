use std::path::Path;

use svw_sim::{DEFAULT_SEED, DEFAULT_TRACE_LEN};

use super::flags::{scope_of, Args, Kind, FLAGS};
use super::usage;

fn parse(command: &str, argv: &[&str]) -> Result<Args, String> {
    Args::parse(command, argv.iter().map(|s| s.to_string()).collect())
}

#[test]
fn arg_parsing_accepts_valid_and_rejects_malformed() {
    let len_seed = |argv: &[&str]| {
        parse("fig5", argv).map(|a| (a.num::<usize>("--trace-len"), a.num::<u64>("--seed")))
    };
    assert_eq!(len_seed(&[]), Ok((DEFAULT_TRACE_LEN, DEFAULT_SEED)));
    assert_eq!(len_seed(&["5000"]), Ok((5000, DEFAULT_SEED)));
    assert_eq!(len_seed(&["5000", "9"]), Ok((5000, 9)));
    assert_eq!(
        len_seed(&["--trace-len", "100", "--seed", "4", "5000"]),
        Ok((5000, 4)),
        "a positional overrides its flag"
    );
    assert!(
        len_seed(&["abc"]).is_err(),
        "non-numeric length is rejected"
    );
    assert!(
        len_seed(&["5000", "xyz"]).is_err(),
        "non-numeric seed is rejected"
    );
    assert!(len_seed(&["0"]).is_err(), "zero length is rejected");
    assert!(
        len_seed(&["5000", "9", "extra"]).is_err(),
        "extra positionals are rejected"
    );
    assert!(len_seed(&["-3"]).is_err(), "negative length is rejected");
    assert!(
        len_seed(&["1125899906842624"]).is_err(),
        "a length past the ceiling is rejected"
    );
}

#[test]
fn values_are_checked_against_their_ranges() {
    let err = |command: &str, argv: &[&str]| parse(command, argv).err().unwrap_or_default();
    for (argv, expected) in [
        (&["--trace-len", "1125899906842624"][..], "1..=10000000"),
        (&["--trace-len", "18446744073709551615"], "1..=10000000"),
        (&["--seeds", "1125899906842624"], "1..=1000"),
        (&["--model-version", "3"], "1..=2"),
        (&["--jobs", "-1"], "expected an unsigned integer"),
        (&["--ci-target", "x"], "expected a number"),
        (
            &["--seed", "18446744073709551615", "--seeds", "2"],
            "overflow",
        ),
        (&["--json", "--json"], "more than once"),
        (&["--out"], "needs a value"),
        (&["--bogus"], "unknown flag"),
    ] {
        let msg = err("sweep", argv);
        assert!(msg.contains(expected), "{argv:?}: {msg:?}");
    }
    assert!(parse("sweep", &["--seed", "18446744073709551615"]).is_ok());
    assert!(err("run", &["--workload", "gcc", "--seeds", "2000"]).contains("1..=1000"));
}

#[test]
fn parsing_never_panics_on_hostile_values() {
    let invocations: [&[&str]; 13] = [
        &["capture"],
        &["inspect", "t.svwt"],
        &["run", "--trace", "t.svwt"],
        &["run"],
        &["sweep"],
        &["sweep", "--plan", "p.plan.jsonl"],
        &["fig5", "2000"],
        &["tables"],
        &["merge", "s.jsonl"],
        &["coordinate", "s.jsonl"],
        &["profile", "e.jsonl"],
        &["experiments", "list"],
        &["cache", "gc"],
    ];
    let values = [
        "",
        "0",
        "1",
        "-1",
        "abc",
        "nan",
        "inf",
        "1125899906842624",
        "18446744073709551615",
        "18446744073709551616",
    ];
    for invocation in invocations {
        let (command, head) = invocation.split_first().unwrap();
        for flag in &FLAGS {
            for value in values {
                let given = [flag.name, value];
                let given = match flag.kind {
                    Kind::Switch => &given[..1],
                    _ => &given[..],
                };
                // Alone, then with the flags the cross-flag rules read.
                for extra in [
                    &[][..],
                    &["--seed", value],
                    &["--ci-target", "1", "--seed", value],
                ] {
                    let argv = [head, given, extra].concat();
                    let _ = parse(command, &argv);
                }
            }
        }
    }
}

#[test]
fn applicability_follows_the_command_and_its_mode() {
    let applies = |command: &str, argv: &[&str]| match parse(command, argv) {
        Ok(_) => Ok(()),
        Err(e) if e.contains("does not apply") => Err(e),
        Err(e) => panic!("{command} {argv:?}: {e}"),
    };
    assert!(applies("run", &["--trace", "t.svwt", "--json"]).is_ok());
    assert_eq!(
        applies("run", &["--trace", "t.svwt", "--jobs", "2"]),
        Err("--jobs does not apply to run --trace".to_string())
    );
    assert!(applies("run", &["--workload", "gcc", "--jobs", "2"]).is_ok());
    assert!(applies("sweep", &["--plan", "p", "--model-version", "1"]).is_err());
    assert!(applies("sweep", &["--figure", "fig5", "--model-version", "1"]).is_ok());
    assert!(applies("coordinate", &["--jobs", "0"]).is_err());
    assert!(applies("experiments", &["list", "--json"]).is_ok());
    assert_eq!(
        applies("experiments", &["show", "fig5", "--json"]),
        Err("--json does not apply to experiments show".to_string())
    );
    assert!(applies("cache", &["gc", "--max-bytes", "5"]).is_ok());
    assert!(applies("cache", &["stats", "--max-bytes", "5"]).is_err());
    assert!(applies("fig5", &["--figure", "fig6"]).is_err());
}

#[test]
fn the_table_declares_each_flag_once_with_defaults_in_range() {
    assert_eq!(FLAGS.len(), 35);
    for (i, flag) in FLAGS.iter().enumerate() {
        assert!(flag.name.starts_with("--"), "{}", flag.name);
        assert!(
            FLAGS[..i].iter().all(|f| f.name != flag.name),
            "{} is declared twice",
            flag.name
        );
        assert_ne!(flag.scope, 0, "{} applies nowhere", flag.name);
        assert_eq!(
            matches!(flag.kind, Kind::Switch),
            flag.value.is_empty(),
            "{}: a switch has no value placeholder, every other flag has one",
            flag.name
        );
        if let Kind::Int {
            min,
            max,
            default: Some(d),
        } = flag.kind
        {
            assert!((min..=max).contains(&d), "{} default {d}", flag.name);
        }
    }
}

/// Every `--flag` token in `text`.
fn flag_tokens(text: &str) -> Vec<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|t| t.starts_with("--") && t[2..].starts_with(|c: char| c.is_ascii_lowercase()))
        .collect()
}

#[test]
fn help_lists_exactly_the_table_and_the_code_names_only_table_flags() {
    let help = usage();
    let options = &help[help.find("OPTIONS:").expect("help has an OPTIONS section")..];
    for flag in &FLAGS {
        assert!(
            options.contains(&format!("\n    {} ", flag.name))
                || options.contains(&format!("\n    {}\n", flag.name)),
            "OPTIONS does not list {}",
            flag.name
        );
    }
    // The prose, every error message and every `args.has("--x")`-style lookup
    // name only flags the table declares (`--help` is the help command).
    let sources = [
        help.as_str(),
        include_str!("../svwsim.rs"),
        include_str!("flags.rs"),
    ];
    for source in sources {
        for token in flag_tokens(source).into_iter().filter(|t| *t != "--help") {
            assert!(
                FLAGS.iter().any(|f| f.name == token),
                "{token} is not in the flag table"
            );
        }
    }
}

/// Words after which an invocation on a documentation line ends.
fn ends_invocation(token: &str) -> bool {
    ["|", "||", "&&", ";", "#", "<"].contains(&token)
        || token.starts_with('>')
        || token.starts_with("2>")
}

/// The `svwsim <command> …` invocations on one (continuation-joined) line:
/// `(command, words after it)`, each word stripped of markup and split at `|`.
fn invocations(line: &str) -> Vec<(String, Vec<String>)> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let mut found = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        let invoker = token.trim_start_matches(['`', '(', '"', '\'']);
        if !(["svwsim", "$SVW", "$S"].contains(&invoker) || invoker.ends_with("/svwsim")) {
            continue;
        }
        let mut rest = tokens[i + 1..].iter().skip_while(|t| **t == "--");
        let Some(command) = rest.next() else { continue };
        let mut words = Vec::new();
        if !command.contains('`') {
            for token in rest {
                if ends_invocation(token) {
                    break;
                }
                words.extend(
                    token
                        .split('|')
                        .map(|w| {
                            w.trim_matches(['[', ']', '(', ')', '`', ',', ';', '.', ':', '"', '\''])
                        })
                        .filter(|w| !w.is_empty())
                        .map(str::to_string),
                );
                if token.contains('`') || token.ends_with(';') {
                    break;
                }
            }
        }
        found.push((
            command
                .trim_end_matches(['`', ')', ',', '.', ':'])
                .to_string(),
            words,
        ));
    }
    found
}

#[test]
fn documented_invocations_use_only_flags_their_command_takes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = vec![
        root.join("README.md"),
        root.join(".claude/skills/verify/SKILL.md"),
        root.join(".github/workflows/ci.yml"),
    ];
    let mut docs: Vec<_> = std::fs::read_dir(root.join("docs"))
        .expect("docs/ exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    docs.sort();
    files.extend(docs);

    let mut checked = 0;
    let mut problems = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        let mut joined = String::new();
        for (n, line) in text.lines().enumerate() {
            if let Some(head) = line.strip_suffix('\\') {
                joined += head;
                continue;
            }
            joined += line;
            for (command, words) in invocations(&joined) {
                let flags: Vec<&str> = words
                    .iter()
                    .map(String::as_str)
                    .filter(|w| w.starts_with("--") && w.len() > 2)
                    .collect();
                let sub = words
                    .iter()
                    .find(|w| !w.starts_with('-'))
                    .map(String::as_str);
                let Ok(scope) = scope_of(&command, |name| flags.contains(&name), sub) else {
                    continue;
                };
                checked += 1;
                for flag in &flags {
                    let verdict = match FLAGS.iter().find(|f| f.name == *flag) {
                        None => "is not a flag",
                        Some(f) if f.scope & scope.bit == 0 => "does not apply",
                        Some(_) => continue,
                    };
                    problems.push(format!(
                        "{}:{}: svwsim {}: {flag} {verdict}",
                        file.strip_prefix(&root).unwrap_or(file).display(),
                        n + 1,
                        scope.label
                    ));
                }
            }
            joined.clear();
        }
    }
    assert!(checked > 100, "only {checked} documented invocations found");
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

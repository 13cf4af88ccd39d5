//! Suppression-budget ratchet: the committed `analyzer_budget.json` pins
//! the maximum number of `analyzer:allow` directives per rule code, and the
//! gate fails when any rule's live count rises above it.
//!
//! The budget only ratchets down. Fixing a suppressed site and lowering the
//! committed number is always allowed; adding a new suppression on a rule
//! at its cap requires either a real fix elsewhere or an explicit,
//! reviewed budget bump in the same change. Codes absent from the budget
//! file have a budget of zero, so brand-new rule families start strict.

use std::collections::BTreeMap;

/// Parse a budget file: a single JSON object mapping rule codes to their
/// maximum allowed suppression counts.
pub fn parse(json: &str) -> Result<BTreeMap<String, usize>, String> {
    serde_json::from_str::<BTreeMap<String, usize>>(json)
        .map_err(|e| format!("budget file is not a {{code: count}} object: {e}"))
}

/// Compare live suppression counts against the budget. Returns one line
/// per violated rule; an empty vector means the gate passes.
#[must_use]
pub fn check(budget: &BTreeMap<String, usize>, counts: &BTreeMap<String, usize>) -> Vec<String> {
    counts
        .iter()
        .filter(|(code, &n)| n > budget.get(*code).copied().unwrap_or(0))
        .map(|(code, &n)| {
            let cap = budget.get(code).copied().unwrap_or(0);
            format!(
                "{code}: {n} suppression(s), budget {cap} — fix a site or \
                 raise the committed budget with review"
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
        pairs.iter().map(|(c, n)| (c.to_string(), *n)).collect()
    }

    #[test]
    fn over_budget_is_a_violation() {
        let violations = check(&counts(&[("CA0004", 2)]), &counts(&[("CA0004", 3)]));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("CA0004: 3 suppression(s), budget 2"));
    }

    #[test]
    fn unbudgeted_code_defaults_to_zero() {
        let violations = check(&counts(&[]), &counts(&[("CB0002", 1)]));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("budget 0"));
    }

    #[test]
    fn at_or_under_budget_passes() {
        let budget = counts(&[("CA0004", 5), ("CD0004", 2)]);
        let live = counts(&[("CA0004", 5), ("CD0004", 1)]);
        assert!(check(&budget, &live).is_empty());
    }

    #[test]
    fn budget_file_parses_as_flat_object() {
        let budget = parse("{\"CA0004\": 3, \"CB0002\": 2}").unwrap();
        assert_eq!(budget.get("CB0002"), Some(&2));
        assert!(parse("[1,2]").is_err());
    }
}

#!/usr/bin/env bash
# Cross-crate dead-public-API sweep (warnalyzer-style).
#
# rustc's dead_code lint stops at crate boundaries: an item that is
# `pub` is "used" as far as its own crate is concerned, even when no
# other workspace crate (or test, bench, or binary) ever touches it.
# This script approximates the cross-crate check with a grep heuristic:
# for every `pub fn|struct|enum|trait|const|type` declared under
# crates/*/src, count identifier occurrences everywhere else in the
# workspace (other files in the same crate included — a helper used
# only beside its own definition is still suspicious API surface).
# Zero occurrences outside the defining file => reported.
#
# Exports kept on purpose (API that perf_ledger, outside the workspace,
# calls; types named in public signatures) live in
# ci/deadpub_allowlist.txt — one identifier per line, `#` comments
# allowed.
#
# Exit code: 1 when non-allowlisted findings exist, else 0. CI's
# deadpub job fails on a finding.
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist=ci/deadpub_allowlist.txt
findings=0
checked=0

# Identifiers permitted to be unreferenced.
declare -A allowed
allow_count=0
if [[ -f "$allowlist" ]]; then
    while IFS= read -r line; do
        line="${line%%#*}"
        line="$(echo "$line" | tr -d '[:space:]')"
        if [[ -n "$line" ]]; then
            allowed["$line"]=1
            allow_count=$((allow_count + 1))
        fi
    done < "$allowlist"
fi

# All declarations: file:line:identifier. Skips #[doc(hidden)]-free
# detection niceties — this is a heuristic, the allowlist absorbs noise.
decls=$(grep -rn --include='*.rs' -E '^[[:space:]]*pub (async )?(fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*' crates/*/src \
    | sed -E 's/^([^:]+):([0-9]+):[[:space:]]*pub (async )?(fn|struct|enum|trait|const|type) ([A-Za-z_][A-Za-z0-9_]*).*/\1:\2:\5/')

while IFS=: read -r file line ident; do
    [[ -z "$ident" ]] && continue
    [[ -n "${allowed[$ident]:-}" ]] && continue
    checked=$((checked + 1))
    # Occurrences of the identifier anywhere in the workspace outside
    # the defining file (sources, integration tests, benches, docs get
    # no say — docs referencing a dead item keep it dead).
    if ! grep -rqw --include='*.rs' --exclude-dir=target "$ident" crates tests --exclude="$(basename "$file")" 2>/dev/null; then
        # --exclude matches by basename and may drop same-named files in
        # other crates; re-check precisely before reporting.
        uses=$(grep -rlw --include='*.rs' "$ident" crates tests 2>/dev/null | grep -cv "^$file\$" || true)
        if [[ "$uses" -eq 0 ]]; then
            echo "dead-pub? $file:$line $ident"
            findings=$((findings + 1))
        fi
    fi
done <<< "$decls"

echo
echo "checked $checked public declarations; $findings potentially dead (allowlist: $allow_count entries)"
if [[ "$findings" -gt 0 ]]; then
    echo "add intentional exports to $allowlist, or delete the item"
    exit 1
fi

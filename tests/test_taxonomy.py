"""Classifier tests: the golden before/after fixtures (one per pattern),
precedence behaviour, history aggregation, Chao1, and Cohen's kappa."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linechurn.churn import PROGRAMMING, categorize_file
from linechurn.diffstream import CommitHeader
from linechurn.taxonomy import (
    Category,
    PATTERN_CATEGORY,
    Pattern,
    PatternLabel,
    chao1,
    chao1_curve,
    classify_history,
    cohens_kappa,
    kappa_between_label_files,
    load_label_overrides,
    normalize_style,
    _PairContext,
    _Revision,
    _is_manifest_path,
    _rule_function_call_change,
)
from linechurn.tracker import TrackedLine

from oracles import tracked_line

# One fixture per pattern with a printed before/after pair; paths chosen to
# match each example's context.
GOLDEN_PAIRS = [
    (Pattern.PINNED_VERSION_BUMP,
     'release = "3.10.181"',
     'release = "3.10.182"',
     "docs/conf.py"),
    (Pattern.CONDITIONAL_VERSION_BUMP,
     "numpy>=1.15,<1.19.0",
     "numpy>=1.16.5,<1.19.0",
     "requirements.txt"),
    (Pattern.RESOURCE_ID_MODIFICATION,
     "IMAGE=container-vm-v20141208",
     "IMAGE=container-vm-v20150112",
     "cluster/gce/config-default.sh"),
    (Pattern.SERVICE_CONFIGURATION,
     'sunbird_user_service_api_base_url: "http://{{sunbird_swarm_manager_lb_ip}}:9000"',
     'sunbird_user_service_api_base_url: "http://{{private_ingressgateway_ip}}/learner"',
     "ansible/inventory/env/group_vars/all.yml"),
    (Pattern.DEPENDENCY_SPECIFICATION,
     "obj-$(CONFIG_VIDEO_DEV) += videodev.o compat_ioctl32.o v4l2-int-device.o",
     "obj-$(CONFIG_VIDEO_DEV) += videodev.o v4l2-compat-ioctl32.o v4l2-int-device.o",
     "drivers/media/video/Makefile"),
    (Pattern.EXTERNAL_DATA_FLUCTUATIONS,
     'tier: "NU",',
     'tier: "PU",',
     "data/formats-data.ts"),
    (Pattern.PATH_UPDATE,
     "import { IProjectStats } from 'lib/services/project-service';",
     "import { IProjectStats } from '../services/project-service';",
     "src/lib/db/project-stats-store.ts"),
    (Pattern.DISTRO_BUMP,
     "name: kolla-ansible-centos8s-source-kvm",
     "name: kolla-ansible-rocky9-source-kvm",
     "zuul.d/jobs.yaml"),
    (Pattern.DEBUG_CONFIGURATION,
     "extra_var_arg+=' -e instance_userdata=\"\" -e launch_wait_time=0'",
     "extra_var_arg+=' -e instance_userdata=\"\" -e launch_wait_time=0 -e elb_pre_post=false'",
     "jjb/scripts/run-integration.sh"),
    (Pattern.FUNCTION_CALL_CHANGE,
     'printf("%s", find_unique_abbrev(get_object_hash(parent->object), abbrev));',
     'printf("%s", find_unique_abbrev(parent->object.oid.hash, abbrev));',
     "diff.c"),
    (Pattern.FORMATTING_PING_PONG,
     "#include <assert.h>",
     "#include  <assert.h>",
     "lib/util.c"),
    (Pattern.LONG_LINE_CHANGE,
     "On the right side of the canvas is Search, and the Global Menu. "
     "You can use Search to easily find components on the",
     "On the right side of the canvas  is Search, and the Global Menu. "
     "For  more information on search refer to <<search>>. The Global Menu",
     "docs/user-guide.adoc"),
    (Pattern.LICENSE_MODIFICATION,
     "# Copyright (C) 2008-2013 TrinityCore <http://www.trinitycore.org/>",
     "# Copyright (C) 2008-2014 TrinityCore <http://www.trinitycore.org/>",
     "CMakeLists.txt"),
    (Pattern.METADATA_CHANGE,
     '"timestamp": "2020-10-03T12:37:57.000+00:00",',
     '"timestamp": "2021-01-25T14:24:58.697Z",',
     "status.json"),
]

STEPWISE_HISTORY = [
    b'menu_opts = model_title.starts_with?("Parent") ? {} : {:menu => chart[:menu]}',
    b'menu_opts = model_title.starts_with?("Parent") ? {} : '
    b'{:menu => chart[:menu], :zoom_url => zoom_url}',
    b'menu_opts = parent ? {} : {:menu => chart[:menu], :zoom_url => zoom_url}',
]


def line_from_contents(contents: list[bytes], timestamps: list[int]) -> TrackedLine:
    return tracked_line((CommitHeader(f"{i:040x}", ts, "Ada", "ada@x"), content)
                        for i, (ts, content) in enumerate(zip(timestamps, contents)))


def label_pair(before: bytes, after: bytes, path: str) -> PatternLabel:
    """One before/after pair labelled as a run labels it: the two-revision
    history of a line in ``path``.  One modification can never make it
    stepwise refactoring."""
    line = line_from_contents([before, after], [0, 86_400])
    return classify_history(line, categorize_file(path), path)


class TestGoldenFixtures:
    @pytest.mark.parametrize("expected,before,after,path", GOLDEN_PAIRS,
                             ids=[p.value for p, *_ in GOLDEN_PAIRS])
    def test_pair_classifies_to_published_label(self, expected, before, after, path):
        label = label_pair(before.encode(), after.encode(), path)
        assert label.label is expected
        assert label.category is PATTERN_CATEGORY[expected]

    def test_stepwise_refactoring_via_history(self):
        day = 86_400
        line = line_from_contents(
            STEPWISE_HISTORY,
            [1_000_000, 1_000_000 + 100 * day, 1_000_000 + 103 * day],
        )
        label = classify_history(line, "programming", "app/controllers/charts_controller.rb")
        assert label.label is Pattern.STEPWISE_REFACTORING


class TestClassifyPair:
    def test_unmatched_code_edit_is_normal_evolution(self):
        label = label_pair(b"total = total + tax", b"total = total - tax",
                           "src/billing.py")
        assert label.label is Pattern.NORMAL_SOFTWARE_EVOLUTION
        assert label.category is Category.NONE

    def test_unmatched_admin_edit_is_unclassified(self):
        label = label_pair(b"some prose here", b"different prose here",
                           "notes.txt")
        assert label.label is Pattern.UNCLASSIFIED

    def test_version_downgrade_is_not_a_pinned_bump(self):
        label = label_pair(b'release = "2.0.0"', b'release = "1.9.9"',
                           "docs/conf.py")
        assert label.label is not Pattern.PINNED_VERSION_BUMP

    def test_caret_range_is_conditional(self):
        label = label_pair(b'"lodash": "^4.17.20"', b'"lodash": "^4.17.21"',
                           "deps/list.txt")
        assert label.label is Pattern.CONDITIONAL_VERSION_BUMP

    def test_case_toggle_is_formatting(self):
        label = label_pair(b"SELECT * FROM t;", b"select * from t;",
                           "query.sql")
        assert label.label is Pattern.FORMATTING_PING_PONG

    def test_metadata_diagnostics_records_secondary_candidate(self):
        label = label_pair(b'"built": "2021-01-01",', b'"built": "2022-02-02",',
                           "build-info.json")
        assert label.label is Pattern.METADATA_CHANGE

    @pytest.mark.parametrize("before,after,matches", [
        ("run(a, check(b))", "run(a, b)", True),
        ("run(a, b)", "run(a, b, c)", True),
        ("f(g(x))", "g(f(x))", False),
        ("x = 1", "x = 2", False),
    ], ids=["callee-removed", "arity-changed", "nesting-swapped", "no-call"])
    def test_function_call_rule(self, before, after, matches):
        """The rule matches when a callee's call count or argument counts
        change, and not when only the nesting moves or nothing is called."""
        ctx = _PairContext(_Revision(before.encode()), _Revision(after.encode()), PROGRAMMING,
                           manifest=False)
        assert _rule_function_call_change(ctx) is matches

    @pytest.mark.parametrize("path, manifest", [
        ("tools/package.json", True), ("build/rules.MK", True), ("requirements-dev.txt", True),
        ("src/app.py", False), ("tools\\package.json", False),  # one name, not a package.json
    ])
    def test_manifest_path(self, path, manifest):
        assert _is_manifest_path(path) is manifest

    def test_determinism(self):
        before, after, path = GOLDEN_PAIRS[0][1:]
        pair = before.encode(), after.encode(), path
        assert label_pair(*pair) == label_pair(*pair)

    @pytest.mark.parametrize("expected,before,after,path", GOLDEN_PAIRS,
                             ids=[p.value for p, *_ in GOLDEN_PAIRS])
    def test_trailing_whitespace_never_changes_label(self, expected, before, after, path):
        base = label_pair(before.encode(), after.encode(), path).label
        padded = label_pair((before + "   ").encode(), (after + "   ").encode(), path).label
        assert padded is base

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters="\n"), max_size=80),
           st.sampled_from([" ", "\t", "  ", " \t "]))
    @settings(max_examples=100, deadline=None)
    def test_formatting_rule_invariant_under_trailing_blanks(self, text, pad):
        # Same text with extra interior blanks stays formatting ping-pong,
        # with or without trailing whitespace on both sides.
        altered = text.replace(" ", "  ", 1) if " " in text else text + " x"
        if normalize_style(text) != normalize_style(altered):
            return
        if text == altered:
            return
        base = label_pair(text.encode(), altered.encode(), "src/app.py")
        padded = label_pair((text + pad).encode(), (altered + pad).encode(), "src/app.py")
        assert base.label is Pattern.FORMATTING_PING_PONG
        assert padded.label is Pattern.FORMATTING_PING_PONG


class TestClassifyHistory:
    def test_majority_vote_and_confidence(self):
        contents = [
            b'v = "1.0.0"',
            b'v = "1.0.1"',   # pinned bump
            b'v = "1.0.1"',   # a touch with no byte change: no vote
            b'v = "1.0.2"',   # pinned bump
            b'v = "1.0.3"',   # pinned bump
            b'value = "1.0.3"',  # something else
        ]
        line = line_from_contents(contents, [1000 * i for i in range(1, 7)])
        label = classify_history(line, "administrative", "app/version.cfg")
        assert label.label is Pattern.PINNED_VERSION_BUMP
        assert label.confidence == pytest.approx(0.75)

    def test_history_too_short(self):
        line = line_from_contents([b"only"], [1000])
        with pytest.raises(ValueError, match="^history of length 1 has no revision pairs$"):
            classify_history(line, "programming", "x.py")

    def test_whitespace_ping_pong(self):
        contents = [b"if (a ==  b) {", b"if (a == b) {", b"if (a ==  b) {"]
        line = line_from_contents(contents, [1000, 2000, 3000])
        label = classify_history(line, "programming", "x.c")
        assert label.label is Pattern.FORMATTING_PING_PONG

    def test_two_close_code_edits_become_stepwise(self):
        day = 86_400
        contents = [b"x = compute(a)", b"x = compute(a) + 1", b"x = compute(a) + 2"]
        line = line_from_contents(contents, [0, 100 * day, 103 * day])
        label = classify_history(line, "programming", "m.py")
        assert label.label is Pattern.STEPWISE_REFACTORING

    def test_spread_out_code_edits_stay_normal(self):
        day = 86_400
        contents = [b"x = compute(a)", b"x = compute(a) + 1", b"x = compute(a) + 2"]
        line = line_from_contents(contents, [0, 100 * day, 200 * day])
        label = classify_history(line, "programming", "m.py")
        assert label.label is Pattern.NORMAL_SOFTWARE_EVOLUTION

    def test_admin_files_never_stepwise(self):
        contents = [b"alpha text", b"beta text", b"gamma text"]
        line = line_from_contents(contents, [0, 1000, 2000])
        label = classify_history(line, "administrative", "notes.txt")
        assert label.label is Pattern.UNCLASSIFIED


class TestChao1:
    def test_paper_terminal_value(self):
        assert chao1(15, 2, 3) == pytest.approx(15 + 2 / 3, abs=1e-9)

    def test_zero_singletons_add_nothing(self):
        assert chao1(15, 0, 3) == 15.0
        assert chao1(15, 0, 0) == 15.0

    def test_bias_corrected_when_no_doubletons(self):
        assert chao1(15, 4, 0) == pytest.approx(21.0)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError, match="^singletons plus doubletons cannot exceed "
                                             "observed richness$"):
            chao1(3, 2, 2)
        with pytest.raises(ValueError, match="^counts must be non-negative$"):
            chao1(-1, 0, 0)

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_estimate_never_below_observed(self, s_extra, f1, f2):
        s_obs = f1 + f2 + s_extra
        assert chao1(s_obs, f1, f2) >= s_obs


class TestChao1Curve:
    def test_single_prefix(self):
        curve = chao1_curve(["A"])
        assert curve == [(1, 1, chao1(1, 1, 0))]

    def test_all_distinct_labels(self):
        labels = [f"L{i}" for i in range(10)]
        curve = chao1_curve(labels)
        assert [s_obs for _, s_obs, _ in curve] == list(range(1, 11))

    def test_final_observed_matches_set_cardinality(self):
        import random
        rng = random.Random(5)
        labels = [f"L{rng.randrange(15)}" for _ in range(160)]
        curve = chao1_curve(labels)
        assert curve[-1][1] == len(set(labels))

    @given(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=60))
    def test_observed_richness_non_decreasing(self, labels):
        curve = chao1_curve(labels)
        observed = [s_obs for _, s_obs, _ in curve]
        assert observed == sorted(observed)


class TestCohensKappa:
    def test_perfect_agreement(self):
        result = cohens_kappa(["A", "B", "A"], ["A", "B", "A"])
        assert result.kappa == 1.0

    def test_hand_computed_confusion_matrix(self):
        labels_a = ["A"] * 20 + ["A"] * 5 + ["B"] * 5 + ["B"] * 20
        labels_b = ["A"] * 20 + ["B"] * 5 + ["A"] * 5 + ["B"] * 20
        result = cohens_kappa(labels_a, labels_b)
        assert result.observed_agreement == pytest.approx(0.8, abs=1e-12)
        assert result.expected_agreement == pytest.approx(0.5, abs=1e-12)
        assert result.kappa == pytest.approx(0.6, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^1 vs 2 labels$"):
            cohens_kappa(["A"], ["A", "B"])

    def test_degenerate_marginals_all_same_label(self):
        result = cohens_kappa(["A", "A"], ["A", "A"])
        assert result.kappa == 1.0

    @given(st.lists(st.sampled_from("ABC"), min_size=2, max_size=40),
           st.lists(st.sampled_from("ABC"), min_size=2, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        try:
            forward = cohens_kappa(a, b)
            backward = cohens_kappa(b, a)
        except ValueError as exc:
            assert str(exc) == "expected agreement is 1 but raters disagree"
            return
        assert forward.kappa == pytest.approx(backward.kappa, abs=1e-12)
        assert -1.0 - 1e-9 <= forward.kappa <= 1.0 + 1e-9


class TestLabelFiles:
    def _write(self, path, rows):
        lines = ["path,line_number,label"] + [f"{p},{n},{l}" for p, n, l in rows]
        path.write_text("\n".join(lines) + "\n", "utf-8")

    def test_override_loading(self, tmp_path):
        f = tmp_path / "labels.csv"
        self._write(f, [("a.py", 3, "pinned-version-bump")])
        overrides = load_label_overrides(f)
        assert overrides == {("a.py", 3): Pattern.PINNED_VERSION_BUMP}

    def test_kappa_between_files(self, tmp_path):
        fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
        rows_a = [("f.py", i, "pinned-version-bump" if i < 8 else "metadata-change")
                  for i in range(10)]
        rows_b = [("f.py", i, "pinned-version-bump" if i < 6 else "metadata-change")
                  for i in range(10)]
        self._write(fa, rows_a)
        self._write(fb, rows_b)
        result = kappa_between_label_files(fa, fb)
        expected = cohens_kappa([r[2] for r in rows_a], [r[2] for r in rows_b])
        assert result.kappa == pytest.approx(expected.kappa)

    def test_bad_columns_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,b\n1,2\n", "utf-8")
        with pytest.raises(ValueError):
            load_label_overrides(f)

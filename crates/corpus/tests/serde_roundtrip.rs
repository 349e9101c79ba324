//! The catalog and code model are data that downstream tooling exports
//! as JSON: the text must parse back into exactly the value tree it was
//! rendered from, and re-render byte for byte.

use jgre_corpus::{spec::AospSpec, CodeModel};
use serde::Serialize;

/// Returns the compact JSON after checking that it round-trips.
fn assert_json_round_trips(data: &impl Serialize) -> String {
    let json = serde_json::to_string(data).expect("data serialises");
    let parsed = serde_json::from_str(&json).expect("exported JSON parses");
    assert!(parsed == data.to_value(), "parsed tree differs");
    assert_eq!(serde_json::to_string(&parsed).expect("re-renders"), json);
    json
}

#[test]
fn spec_roundtrips_through_json() {
    let json = assert_json_round_trips(&AospSpec::android_6_0_1());
    // The catalog is a non-trivial document.
    assert!(json.len() > 100_000, "unexpectedly small: {}", json.len());
}

#[test]
fn model_roundtrips_through_json() {
    assert_json_round_trips(&CodeModel::synthesize(&AospSpec::android_6_0_1()));
}

#[test]
fn golden_catalog_facts() {
    // A handful of exact values pinned against accidental catalog drift;
    // every number here is traceable to the paper.
    let spec = AospSpec::android_6_0_1();
    let wifi = spec.service("wifi").expect("wifi exists");
    assert_eq!(wifi.interface, "IWifiManager");
    let toast = spec
        .service("notification")
        .unwrap()
        .method("enqueueToast")
        .unwrap();
    assert_eq!(
        toast.cost.expected_exhaustion_us(jgre_corpus::JGR_CAP, 1) / 1_000_000,
        1_800,
        "the slowest exhaustion is pinned at 1800 s"
    );
    let audio = spec
        .service("audio")
        .unwrap()
        .method("startWatchingRoutes")
        .unwrap();
    assert_eq!(
        audio.cost.expected_exhaustion_us(jgre_corpus::JGR_CAP, 1) / 1_000_000,
        100,
        "the fastest exhaustion is pinned at 100 s"
    );
    let pico = spec.prebuilt_app("PicoTts").expect("PicoTts exists");
    assert_eq!(pico.code_path, "external/svox/pico");
    assert_eq!(
        spec.third_party_apps.len()
            - spec
                .third_party_apps
                .iter()
                .filter(|a| a.vulnerable_interface.is_some())
                .count(),
        997
    );
}

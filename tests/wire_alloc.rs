//! Counting-allocator proof that reading a request line costs its image
//! and nothing else big: a ResNet-18-32 image line (3 072 values, spelt
//! as the benchmark client spells them) makes exactly one allocation
//! above 1 KiB, the image's `f32`s, sized once — no `Json` tree, no
//! per-value boxing, no regrowth.
//!
//! A binary of its own with a single `#[test]`, so no concurrent test
//! thread allocates inside the measured window.

mod common;

use common::{big_allocations, BIG};
use zskip::accel::serve::wire::{self, WireInput, WireRequest};
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::NetworkSpec;

#[test]
fn a_resnet18_image_line_allocates_its_image_and_nothing_else_big() {
    let spec = format!("{}/specs/resnet18.json", env!("CARGO_MANIFEST_DIR"));
    let spec = NetworkSpec::from_json(&std::fs::read_to_string(spec).expect("the in-repo spec")).expect("valid");
    let image = &synthetic_inputs(3, 1, spec.input)[0];
    let values: Vec<String> = image.as_slice().iter().map(f32::to_string).collect();
    let line = format!("{{\"op\":\"infer\",\"id\":\"r0\",\"image\":[{}]}}", values.join(","));

    let mut parsed = None;
    let sizes = big_allocations(|| parsed = Some(wire::parse_request(&line)));
    let Some(Ok(WireRequest::Infer { input: WireInput::Image(data), .. })) = parsed else {
        panic!("the line is an infer request");
    };
    assert_eq!(data.len(), spec.input.len());
    assert_eq!(
        sizes,
        [spec.input.len() * size_of::<f32>()],
        "a {}-byte request line may allocate its image once and nothing else above {BIG} bytes",
        line.len()
    );
}

#!/usr/bin/env python3
"""Serving authorization-controlled inference over TCP.

One JSON object per line in, one per line out. The response carries only a
class index, byte-for-byte the same shape whether or not the caller was
authorized, so probing the wire reveals nothing about the control center.

Nor does the time it takes: authorization does the same work on both
branches, and the service caches each decision per (credential, key image
bytes) in a table of fixed capacity, for either outcome alike. The first
request with a key it has not seen costs a full decision on either branch;
the repeated requests below are served from the cache.
"""

import numpy as np

from modelmark import acpt, gateway, media, synthdata, tinynn
from modelmark.errors import RequestRejectedError

rings = synthdata.key_image_class("rings", 40, seed=50)
others = synthdata.key_image_class("other", 40, seed=52)
detector = acpt.train_detector(
    rings[:30], others[:30],
    tinynn.TrainConfig(epochs=30, batch_size=16, learning_rate=0.02, seed=60),
)
credential = acpt.make_credential("user1", "HN", k1=range(8))
base = acpt.enroll(acpt.IdentityBase(), credential, rings[0], "Alice")
bundle = acpt.UserKeyBundle("Alice", rings[:4], detector, credential)

train = synthdata.synthetic_digits(1500, seed=100)
model = tinynn.train(
    tinynn.init_model((1, 28, 28), tinynn.desk_cnn_layers(10), 10, seed=0),
    train,
    tinynn.TrainConfig(epochs=2, batch_size=64, learning_rate=0.05, seed=1),
)

service = gateway.GatewayService(("127.0.0.1", 0), [bundle], model, base, seed=99)
host, port = service.address
print(f"gateway listening on {host}:{port}")

try:
    test = synthdata.synthetic_digits(6, seed=300)
    key_bytes = media.write_ppm(rings[0])

    def ask(request_id, credential_text, i):
        digit = (test.inputs[i, 0] * 255).astype(np.uint8)
        query = media.write_ppm(np.repeat(digit[:, :, None], 3, axis=2))
        response = gateway.client_infer(
            (host, port),
            gateway.InferRequest(
                request_id=request_id,
                credential=credential_text,
                key_image=key_bytes,
                query_image=query,
            ),
        )
        return response.class_index

    print("\nauthorized requests (true predictions):")
    for i in range(3):
        got = ask(f"demo-auth-{i}", credential.encrypted_username, i)
        print(f"  digit labeled {test.labels[i]} -> class {got}")

    print("\nsame queries with a forged credential (seeded random classes):")
    for i in range(3):
        got = ask(f"demo-forged-{i}", "00000000", i)
        print(f"  digit labeled {test.labels[i]} -> class {got}")

    print("\nmalformed requests get an error object, not a class:")
    try:
        ask("demo-short-cred", "1234567", 0)
    except RequestRejectedError as exc:
        print(f"  7-character credential -> {exc.error_code}")
finally:
    service.close()
    print("\ngateway closed")
